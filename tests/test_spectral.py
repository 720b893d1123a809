import json
import math
import tracemalloc

import numpy as np
import pytest

import scipy.sparse.linalg
from hypothesis import assume, given, settings, strategies as st

from nonlocalrd.evolve import IntegratorConfig, evolve_nonlinear, kaplan_witness
from nonlocalrd.kernel import Kernel, assemble_kernel, build_operator, compute_h0
from nonlocalrd.reaction import CallableReaction
from nonlocalrd.space import build_graph, build_interval, merge_spaces
from nonlocalrd import spectral
from nonlocalrd.spectral import (
    CERT_RTOL,
    DENSE_CUTOFF,
    POWER_MAX_ITER,
    POWER_RTOL,
    _power_iteration,
    cw_bounds,
    essential_range,
    principal_value,
    rayleigh_lambda,
    shift_bound_rhs,
    shifted_potential,
    sign_criteria,
    spectral_energy,
)


def step_lambda(a):
    """Spectral bound for J≡1 on [0,1] with potential a·χ_{(1/2,1]}.

    A piecewise-constant eigenfunction (c1, c2) forces the
    self-consistency 1 = 0.5/λ + 0.5/(λ+a), whose positive root is
    (-(a-1) + sqrt(a²+1)) / 2.
    """
    return (-(a - 1.0) + math.sqrt(a * a + 1.0)) / 2.0


def unit_system(n=128, law="constant", **params):
    s = build_interval(0, 1, n)
    if law == "constant":
        params.setdefault("c", 1.0)
    k = assemble_kernel(s, law, **params)
    return s, k


def random_system(rng, n=48):
    s = build_interval(0, 1, n)
    law = rng.choice(["constant", "tophat", "gaussian"])
    if law == "constant":
        k = assemble_kernel(s, "constant", c=float(rng.uniform(0.5, 2)))
    elif law == "tophat":
        k = assemble_kernel(s, "tophat", R=float(rng.uniform(0.3, 0.9)),
                            J0=float(rng.uniform(0.5, 2)))
    else:
        k = assemble_kernel(s, "gaussian", sigma=float(rng.uniform(0.15, 0.5)),
                            scale=float(rng.uniform(0.5, 1.5)))
    h = rng.uniform(-0.5, 1.5) + rng.uniform(0, 1) * np.sin(2 * np.pi * s.x) \
        + rng.uniform(-0.5, 0.5) * (s.x > rng.uniform(0.2, 0.8))
    return s, k, build_operator(k, h)


class TestPrincipalValue:
    def test_threshold_potential_gives_zero_with_constant_eigenfunction(self):
        s, k = unit_system()
        op = build_operator(k, compute_h0(k))
        for method in ("dense", "power", "auto"):
            rep = principal_value(op, method)
            assert abs(rep.lam) <= 1e-12
            assert rep.is_principal
            assert np.max(np.abs(rep.eigenfunction - 1.0)) <= 1e-10

    def test_zero_potential_rank_one(self):
        s, k = unit_system()
        rep = principal_value(build_operator(k, np.zeros(s.n)), "auto")
        assert rep.lam == pytest.approx(1.0, abs=1e-12)
        assert rep.is_principal

    def test_step_potential_closed_form(self):
        s, k = unit_system(n=512)
        h = np.where(s.x > 0.5, 3.0, 0.0)
        op = build_operator(k, h)
        for method in ("dense", "power"):
            rep = principal_value(op, method)
            assert rep.lam == pytest.approx(step_lambda(3.0), abs=1e-10)
        assert principal_value(op, "auto").residual <= 1e-8

    def test_reducible_diagonal_case_has_no_principal_eigenfunction(self):
        s = build_interval(0, 1, 6)
        k = assemble_kernel(s, "constant", c=0.0)
        rep = principal_value(build_operator(k, np.linspace(1, 2, 6)), "auto")
        assert rep.lam == pytest.approx(-1.0, abs=1e-10)
        assert not rep.is_principal
        assert rep.eigenfunction is None

    def test_report_bounds_hold_on_random_systems(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            _, _, op = random_system(rng)
            lam = principal_value(op, "auto").lam
            assert -np.min(op.h) <= lam + 1e-9
            assert lam <= np.max(op.h0 - op.h) + 1e-9

    def test_monotone_in_potential(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            _, k, op = random_system(rng)
            bump = rng.uniform(0, 1, size=op.n)
            lam1 = principal_value(op, "dense").lam
            lam2 = principal_value(build_operator(k, op.h + bump), "dense").lam
            assert lam1 >= lam2 - 1e-10

    def test_power_matches_dense(self):
        rng = np.random.default_rng(31)
        ops = [random_system(rng, n=40)[2] for _ in range(8)]
        # a reducible union: two parts no kernel entry joins, each with its own potential
        space = merge_spaces(build_interval(0, 1, 12), build_interval(2, 3, 12))
        ops.append(build_operator(assemble_kernel(space, "tophat", R=0.3, J0=2.0),
                                  np.where(space.x < 1.5, 1.0, 1.5) + 0.1 * np.sin(space.x)))
        for op in ops:
            d = principal_value(op, "dense").lam
            p = principal_value(op, "power").lam
            assert abs(p - d) <= 1e-12 * max(1.0, abs(d))

    def test_rejects_unknown_method(self):
        _, k = unit_system(n=8)
        with pytest.raises(ValueError):
            principal_value(build_operator(k, np.zeros(8)), "qr")


def sampled_operator(rng, kind, n):
    """Random interval, graph, union (two disconnected parts) or nonsymmetric table system."""
    if kind == "graph":
        edges = [[i, (i + 1) % n, float(rng.uniform(0.5, 1.5))] for i in range(n)]
        edges += [[int(i), int(j), float(rng.uniform(1.0, 5.0))]
                  for i, j in rng.integers(0, n, size=(n // 4, 2)) if i != j]
        s = build_graph(n, edges, rng.uniform(0.5, 1.5, size=n) / n)
        k = assemble_kernel(s, "gaussian", sigma=float(rng.uniform(2.0, 6.0)),
                            scale=float(rng.uniform(0.5, 1.5)))
    elif kind == "union":
        s = merge_spaces(build_interval(0, 1, n // 2), build_interval(1.5, 2.5, n - n // 2))
        k = assemble_kernel(s, "tophat", R=float(rng.uniform(0.05, 0.3)),
                            J0=float(rng.uniform(0.5, 2.0)))
    else:
        s = build_interval(0, 1, n)
        r = float(rng.uniform(0.05, 0.5))
        if kind == "interval":
            k = assemble_kernel(s, "tophat", R=r, J0=float(rng.uniform(0.5, 2.0)))
        else:  # tophat with a drift term and noise: nonsymmetric
            d = s.x[None, :] - s.x[:, None]
            jmat = 2.0 * (np.abs(d) < r) * (1.0 + 0.5 * d / r) * rng.uniform(0.9, 1.1, (n, n))
            k = assemble_kernel(s, "table", jmat=jmat)
    h = rng.uniform(0.5, 1.5) + rng.uniform(-0.5, 0.5) * np.sin(2 * np.pi * np.arange(n) / n)
    return build_operator(k, h)


def banded_operator(rng, kind, n):
    """A tophat-banded interval kernel reaching past the node spacing, with a
    drift on "table" that makes it nonsymmetric: irreducible, so Λ is principal."""
    s = build_interval(0, 1, n)
    d = s.x[None, :] - s.x[:, None]
    r = float(rng.uniform(0.05, 0.5)) + 1.5 / n
    drift = 0.5 * d / r if kind == "table" else 0.0
    jmat = rng.uniform(0.5, 2.0) * (np.abs(d) < r) * (1.0 + drift)
    h = rng.uniform(0.5, 1.5) + rng.uniform(-0.5, 0.5) * np.sin(2 * np.pi * s.x)
    return build_operator(assemble_kernel(s, "table", jmat=jmat), h)


class TestCertifiedSolver:
    KINDS = ("interval", "graph", "union", "table")
    SIZES = (24, DENSE_CUTOFF - 1, DENSE_CUTOFF, 100, 200)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_dense_eigvals_with_bracketing_certificate(self, kind):
        rng = np.random.default_rng(self.KINDS.index(kind))
        for n in self.SIZES:
            op = sampled_operator(rng, kind, n)
            ref = float(np.max(np.linalg.eigvals(op.amat).real))
            scale = max(1.0, abs(ref))
            rep = principal_value(op)
            if n < DENSE_CUTOFF:
                assert rep.method == "dense"
            else:
                assert rep.method == ("arnoldi" if kind == "table" else "lanczos")
            assert abs(rep.lam - ref) <= 1e-10 * scale
            assert rep.is_principal == (kind != "union")
            if rep.is_principal:
                # the ratios carry rounding, so the bracket gets a rounding-sized slack
                assert rep.certificate.lower - 1e-12 * scale <= ref
                assert ref <= rep.certificate.upper + 1e-12 * scale
            else:
                assert rep.certificate is None
            again = principal_value(op)
            assert again.lam == rep.lam and again.method == rep.method
            if rep.is_principal:
                assert np.array_equal(again.eigenfunction, rep.eigenfunction)
                assert again.certificate.lower == rep.certificate.lower
                assert again.certificate.upper == rep.certificate.upper

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["interval", "graph", "table"]),
           st.integers(2, 48))
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_certificate_sandwiches_the_eig_bound(self, seed, kind, n):
        # sampled_operator's systems with the tophat reaching past the node
        # spacing: irreducible, so the eigenfunction is positive
        rng = np.random.default_rng(seed)
        op = sampled_operator(rng, kind, n) if kind == "graph" else banded_operator(rng, kind, n)
        ref = float(np.max(np.linalg.eigvals(op.amat).real))
        cert = principal_value(op, "auto").certificate
        assume(cert is not None)  # entries below PRINCIPAL_FLOOR: nothing certified
        assert cert.lower <= ref <= cert.upper
        # a tiny φ_i carries a ratio error ~eps·|A|/φ_i; the dense path certifies
        # one shifted inverse-iteration step instead, whose entries are not rounding
        assert cert.upper - cert.lower <= CERT_RTOL * max(1.0, abs(ref))

    @pytest.mark.parametrize("seed, kind, n", [(34, "interval", 48), (53, "table", 40)])
    def test_localized_eigenfunction_gets_a_narrow_dense_certificate(self, seed, kind, n):
        # φ's own sandwiches are 5.6e-9 and 9.2e-8 wide (min φ 3.2e-8 and 1.3e-8)
        op = banded_operator(np.random.default_rng(seed), kind, n)
        rep = principal_value(op, "auto")
        ref = float(np.max(np.linalg.eigvals(op.amat).real))
        cert, phi = rep.certificate, rep.eigenfunction
        assert rep.method == "dense" and rep.lam == principal_value(op, "dense").lam
        assert np.min(phi) < 1e-5 and not np.array_equal(cert.test_function, phi)
        assert cw_bounds(op, phi).upper - cw_bounds(op, phi).lower > CERT_RTOL
        assert cert.lower <= ref <= cert.upper
        assert cert.upper - cert.lower <= CERT_RTOL * max(1.0, abs(ref))

    @pytest.mark.parametrize("kind", ("interval", "table"))
    @pytest.mark.parametrize("error", (
        scipy.sparse.linalg.ArpackError(-9),
        scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0))),
    ))
    def test_arpack_failure_falls_back_to_dense(self, monkeypatch, kind, error):
        op = sampled_operator(np.random.default_rng(5), kind, 100)
        fast = principal_value(op)

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
        monkeypatch.setattr(scipy.sparse.linalg, "eigs", fail)
        rep = principal_value(op)
        assert rep.method == "dense"
        assert rep.lam == pytest.approx(fast.lam, abs=1e-10 * max(1.0, abs(fast.lam)))
        assert rep.lam == principal_value(op, "dense").lam


class TestCwBounds:
    def test_constant_test_function_zero_potential(self):
        s, k = unit_system(n=64)
        b = cw_bounds(build_operator(k, np.zeros(64)), np.ones(64))
        assert b.lower == pytest.approx(1.0, abs=1e-13)
        assert b.upper == pytest.approx(1.0, abs=1e-13)

    def test_threshold_potential_pins_zero(self):
        s, k = unit_system(n=64)
        b = cw_bounds(build_operator(k, compute_h0(k)), np.ones(64))
        assert b.lower == pytest.approx(0.0, abs=1e-13)
        assert b.upper == pytest.approx(0.0, abs=1e-13)

    def test_sandwich_on_step_potential(self):
        s, k = unit_system(n=256)
        op = build_operator(k, np.where(s.x > 0.5, 3.0, 0.0))
        rng = np.random.default_rng(1)
        lam = step_lambda(3.0)
        for _ in range(50):
            phi = rng.uniform(0.05, 1.0, size=256)
            b = cw_bounds(op, phi)
            assert b.lower <= lam + 1e-9
            assert b.upper >= lam - 1e-9

    def test_sandwich_holds_a_zero_bound_through_rounding(self):
        # rows [1, t, t] with h = 1 + 2t: eigenvalues 0, -h, -h, and L1 = 0
        # exactly, but the computed 1 + t + t - h rounds to -2t, below Λ
        t = 2.0 ** -53
        space = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)], np.ones(3))
        kernel = assemble_kernel(space, "table", jmat=np.array([[1.0, t, t]] * 3))
        b = cw_bounds(build_operator(kernel, 1.0 + 2 * t), np.ones(3))
        assert b.lower <= 0.0 <= b.upper

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_report_makes_one_kernel_product(self, seed, monkeypatch):
        # residual and certificate share kφ: one product, where there were two
        _, _, op = random_system(np.random.default_rng(seed))
        calls, real = [], Kernel.matvec
        monkeypatch.setattr(Kernel, "matvec", lambda self, x: calls.append(x) or real(self, x))
        rep = principal_value(op, "dense")
        assert rep.is_principal and len(calls) == 1
        monkeypatch.undo()
        phi = rep.eigenfunction
        assert rep.residual == float(np.max(np.abs(op.apply(phi) - rep.lam * phi)))
        ref = cw_bounds(op, phi)
        assert (rep.certificate.lower, rep.certificate.upper) == (ref.lower, ref.upper)

    def test_rejects_nonpositive_test_function(self):
        s, k = unit_system(n=8)
        op = build_operator(k, np.zeros(8))
        with pytest.raises(ValueError):
            cw_bounds(op, np.zeros(8))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                cw_bounds(op, np.r_[np.ones(7), bad])


class TestEssentialRange:
    def test_constant_potential(self):
        s = build_interval(0, 1, 32)
        out = essential_range(np.ones(32), s.weights)
        assert len(out) == 1
        assert out[0][0] == pytest.approx(-1.0)
        assert out[0][1] == pytest.approx(1.0)

    def test_two_level_potential(self):
        s = build_interval(0, 1, 32)
        h = np.where(s.x > 0.5, 3.0, 1.0)
        out = essential_range(h, s.weights)
        assert [v for v, _ in out] == pytest.approx([-3.0, -1.0])
        assert [m for _, m in out] == pytest.approx([0.5, 0.5])

    def test_distinct_values_make_distinct_clusters(self):
        s = build_interval(0, 1, 10)
        h = np.arange(10, dtype=float)
        out = essential_range(h, s.weights, tol=0.5)
        assert len(out) == 10


def test_essential_range_is_computed_on_read(monkeypatch, tmp_path):
    # no solve computes it; the spectrum command reads it off the operator
    from nonlocalrd.cli import Experiment, load_config, main

    calls = []
    frozen = spectral.essential_range

    def counted(h, weights, tol=1e-12):
        calls.append(1)
        return frozen(h, weights, tol)

    monkeypatch.setattr(spectral, "essential_range", counted)
    rng = np.random.default_rng(3)
    s, k, op = random_system(rng, n=80)
    reps = [principal_value(op, method) for method in ("auto", "dense", "power")]
    reps.append(rayleigh_lambda(k, op.h))
    assert calls == []
    assert not hasattr(reps[0], "essential_range") and "op=" not in repr(reps[0])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "space": {"type": "interval", "a": 0.0, "b": 1.0, "n": 64},
        "kernel": {"law": "constant", "c": 1.0},
        "potential": {"kind": "expr", "expr": "1 + (x > 0.5)"},
        "reaction": {"kind": "logistic", "g": 0.0, "n": 2.0, "m": 1.0, "rho": 3.0},
        "u0": {"kind": "constant", "value": 0.5},
        "integrator": {"scheme": "rk4", "dt": 0.01, "t_end": 0.5}}))
    assert main(["--out", str(tmp_path), "spectrum", "--config", str(cfg)]) == 0
    assert len(calls) == 1
    exp = Experiment(load_config(str(cfg)))
    expected = frozen(exp.op.h, exp.space.weights)
    assert len(expected) == 2
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["essential_range"] == [list(pair) for pair in expected]


def _reference_essential_range(h, weights, tol=1e-12):
    """The node-by-node loop essential_range ran before it was vectorized."""
    vals = -np.asarray(h, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(vals)
    clusters = []
    cur_vals, cur_ws = [vals[order[0]]], [w[order[0]]]
    for idx in order[1:]:
        if vals[idx] - cur_vals[-1] <= tol:
            cur_vals.append(vals[idx])
            cur_ws.append(w[idx])
        else:
            cw = float(np.sum(cur_ws))
            clusters.append((float(np.dot(cur_vals, cur_ws) / cw), cw))
            cur_vals, cur_ws = [vals[idx]], [w[idx]]
    cw = float(np.sum(cur_ws))
    clusters.append((float(np.dot(cur_vals, cur_ws) / cw), cw))
    return clusters


@pytest.mark.parametrize("kind", ["distinct", "rounded", "constant", "sin"])
def test_essential_range_equals_the_frozen_loop(kind):
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 17, 64, 513):
        x = (np.arange(n) + 0.5) / n
        h = {"distinct": rng.standard_normal(n),
             "rounded": np.round(rng.uniform(-1.0, 1.0, n), 1),
             "constant": np.full(n, rng.uniform(-2.0, 2.0)),
             "sin": 1.0 + 0.5 * np.sin(2 * np.pi * x)}[kind]
        for w in (np.full(n, 1.0 / n), rng.uniform(0.1, 2.0, n)):
            for tol in (1e-12, 1e-3, 0.05):
                got = essential_range(h, w, tol)
                assert got == _reference_essential_range(h, w, tol)
                assert all(type(v) is float and type(m) is float for v, m in got)


class TestRayleigh:
    def test_rank_one(self):
        s, k = unit_system(n=64)
        assert rayleigh_lambda(k, np.zeros(64)).lam == pytest.approx(1.0, abs=1e-12)

    def test_step_potential(self):
        s, k = unit_system(n=512)
        h = np.where(s.x > 0.5, 3.0, 0.0)
        assert rayleigh_lambda(k, h).lam == pytest.approx(step_lambda(3.0), abs=1e-9)

    def test_agreement_with_principal_value_on_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            _, k, op = random_system(rng)
            r = rayleigh_lambda(k, op.h).lam
            d = principal_value(op, "dense").lam
            assert abs(r - d) <= 1e-9

    def test_rejects_asymmetric_kernel(self):
        s = build_interval(0, 1, 4)
        jmat = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], float)
        k = assemble_kernel(s, "table", jmat=jmat)
        assert not k.symmetric
        with pytest.raises(ValueError):
            rayleigh_lambda(k, np.zeros(4))


class TestSpectralEnergy:
    def test_constant_state_reduces_to_mean_term(self):
        s, k = unit_system(n=32)
        h = np.linspace(0.5, 1.5, 32)
        h0 = compute_h0(k)
        c = 1.7
        expected = -float(np.sum(s.weights * (h - h0))) * c * c
        assert spectral_energy(k, h, np.full(32, c)) == pytest.approx(expected, abs=1e-12)

    def test_threshold_potential_constant_gives_zero(self):
        s, k = unit_system(n=32)
        assert spectral_energy(k, compute_h0(k), np.ones(32)) == pytest.approx(0.0, abs=1e-13)

    def test_unit_norm_states_stay_below_lambda(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            s, k, op = random_system(rng)
            lam = principal_value(op, "dense").lam
            phi = rng.standard_normal(op.n)
            phi /= math.sqrt(float(np.sum(s.weights * phi * phi)))
            assert spectral_energy(k, op.h, phi) <= lam + 1e-9


class TestSignCriteria:
    def test_threshold_case(self):
        s, k = unit_system(n=48)
        rep = sign_criteria(build_operator(k, compute_h0(k)))
        byname = {c.name: c for c in rep.checks}
        assert byname["h_equals_h0"].holds
        assert byname["h_equals_h0"].predicted_sign == "zero"
        assert rep.computed_sign == "zero"

    def test_strictly_above_threshold(self):
        s, k = unit_system(n=48)
        rep = sign_criteria(build_operator(k, compute_h0(k) + 0.1))
        byname = {c.name: c for c in rep.checks}
        assert byname["h0_strictly_below_h"].holds
        assert byname["h0_strictly_below_h"].predicted_sign == "negative"
        assert rep.computed_sign == "negative"

    def test_strictly_below_threshold(self):
        s, k = unit_system(n=48)
        rep = sign_criteria(build_operator(k, compute_h0(k) - 0.1))
        byname = {c.name: c for c in rep.checks}
        assert byname["h_plus_delta_below_h0"].holds
        assert byname["h_plus_delta_below_h0"].value == pytest.approx(0.1, abs=1e-12)
        assert byname["h_plus_delta_below_h0"].predicted_sign == "positive"
        assert rep.computed_sign == "positive"

    def test_negative_minimum(self):
        s, k = unit_system(n=48)
        rep = sign_criteria(build_operator(k, np.full(48, -0.3)))
        byname = {c.name: c for c in rep.checks}
        assert byname["m_negative"].holds
        assert rep.computed_sign == "positive"
        assert byname["mass_at_min"].value == pytest.approx(1.0)


class TestShift:
    def test_shifted_potential_examples(self):
        s = build_interval(0, 1, 8)
        h = np.zeros(8)
        mask = s.x > 0.5
        out = shifted_potential(h, mask, 3.0)
        np.testing.assert_allclose(out, np.where(mask, -3.0, 0.0))
        full = shifted_potential(np.ones(8), np.ones(8, bool), 2.0)
        np.testing.assert_allclose(full, -1.0)
        with pytest.raises(ValueError):
            shifted_potential(h, mask, 0.0)
        with pytest.raises(ValueError):
            shifted_potential(h, np.zeros(8, bool), 1.0)

    def test_bound_rhs_rank_one_parts(self):
        s, k = unit_system(n=512)
        mask = s.x > 0.5
        assert shift_bound_rhs(k, np.zeros(512), mask, 3.0) == pytest.approx(-1.0, abs=1e-9)
        assert shift_bound_rhs(k, np.zeros(512), mask, 0.0) == pytest.approx(2.0, abs=1e-9)
        with pytest.raises(ValueError):
            shift_bound_rhs(k, np.zeros(512), np.ones(512, bool), 3.0)

    def test_shifted_spectral_bound_closed_form(self):
        s, k = unit_system(n=512)
        mask = s.x > 0.5
        for a in (1.0, 3.0, 10.0, 100.0):
            shifted = shifted_potential(np.zeros(512), mask, a)
            lam = principal_value(build_operator(k, -shifted), "dense").lam
            assert lam == pytest.approx(step_lambda(a), abs=1e-9)


@pytest.mark.parametrize("h", [0.0, -0.0, 0.37, -1.25, 3])
def test_scalar_potential_equals_its_broadcast(h):
    """A scalar h reaches build_operator, numpy arithmetic or max|h| only,
    so it must give exactly what the same value repeated at each node does."""
    s, k = unit_system(n=24, law="gaussian", sigma=0.2)
    full = np.full(s.n, float(h))
    phi = np.cos(3.0 * s.x)
    assert spectral_energy(k, h, phi) == spectral_energy(k, full, phi)
    mask = s.x > 0.4
    assert shift_bound_rhs(k, h, mask, 1.5) == shift_bound_rhs(k, full, mask, 1.5)
    cube = CallableReaction(lambda u: u ** 3, lambda u: 3 * u ** 2, n_nodes=s.n)
    tr = evolve_nonlinear(build_operator(k, h), cube, np.full(s.n, 0.5),
                          IntegratorConfig(scheme="rk4", dt=1e-2, t_end=0.1))
    a, b = kaplan_witness(k, h, 3.0, tr), kaplan_witness(k, full, 3.0, tr)
    np.testing.assert_array_equal(a.comparison, b.comparison)
    assert (a.dominated, a.lam, a.blowup_time_estimate) == \
        (b.dominated, b.lam, b.blowup_time_estimate)


def _reference_power_iteration(bmat):
    """The power iteration with two matrix products per step, as it ran
    before the Rayleigh quotient's product was reused."""
    n = bmat.shape[0]
    x = np.ones(n) / n
    lam = 0.0
    for it in range(POWER_MAX_ITER):
        y = bmat @ x
        norm = np.max(np.abs(y))
        if norm == 0.0:
            return 0.0, x, True
        x_new = y / norm
        lam_new = float(x_new @ (bmat @ x_new)) / float(x_new @ x_new)
        if it > 0 and abs(lam_new - lam) <= POWER_RTOL * max(1.0, abs(lam_new)):
            resid = np.max(np.abs(bmat @ x_new - lam_new * x_new))
            if resid <= 1e-9 * max(1.0, abs(lam_new)):
                return lam_new, x_new, True
        x, lam = x_new, lam_new
    return lam, x, False


def test_power_iteration_equals_the_frozen_loop():
    rng = np.random.default_rng(5)
    mats = [rng.uniform(0.0, 1.0, (n, n)) for n in (1, 4, 33, 130)]
    mats += [rng.uniform(0.0, 1.0, (40, 40)) * (rng.uniform(size=(40, 40)) < 0.1)
             for _ in range(3)]
    blocks = rng.uniform(0.0, 1.0, (2, 20, 20))
    reducible = np.zeros((40, 40))
    reducible[:20, :20], reducible[20:, 20:] = blocks[0], 0.9 * blocks[1]
    mats += [reducible,
             np.array([[0.0, 1.0], [0.0, 0.0]]),  # nilpotent: the zero-norm exit
             np.array([[0.0, 2.0], [1.0, 0.0]])]  # ±√2 alternate: never converges
    outcomes = set()
    for bmat in mats:
        rho, vec, converged = _power_iteration(bmat.__matmul__, bmat.shape[0])
        ref_rho, ref_vec, ref_converged = _reference_power_iteration(bmat)
        assert (rho, converged) == (ref_rho, ref_converged)
        assert vec.tobytes() == ref_vec.tobytes()
        outcomes.add((converged, rho == 0.0))
    assert outcomes == {(True, False), (True, True), (False, False)}


# --- the iterative solvers run on kernel products: no n×n array -------------


def test_iterative_solvers_hold_no_matrix():
    """At n = 512 a matrix is 8n² bytes: Lanczos on a symmetric kernel, Arnoldi
    on a nonsymmetric table and the power iteration each peak below one."""
    n = 512
    space = build_interval(0, 1, n)
    h = 1.0 + 0.5 * np.sin(2 * np.pi * space.x)
    d = space.x[None, :] - space.x[:, None]
    sym = build_operator(assemble_kernel(space, "tophat", R=0.3, J0=2.0), h)
    table = build_operator(assemble_kernel(space, "table", jmat=(np.abs(d) < 0.3) * (2.0 + d)), h)
    cases = ((sym, "auto", "lanczos"), (table, "auto", "arnoldi"), (sym, "power", "power"))
    principal_value(sym)  # imports what the solvers import lazily, untraced
    tracemalloc.start()
    try:
        for op, method, expected in cases:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rep = principal_value(op, method)
            assert tracemalloc.get_traced_memory()[1] - base < 8 * n * n, expected
            assert rep.method == expected
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind, method, expected", [("interval", "auto", "lanczos"),
                                                    ("table", "auto", "arnoldi"),
                                                    ("interval", "power", "power")])
def test_iterative_solvers_run_on_kernel_products(kind, method, expected, monkeypatch):
    """Every product of the solve is one Kernel.matvec of an (n,) vector."""
    op = sampled_operator(np.random.default_rng(4), kind, 100)
    shapes, real = [], Kernel.matvec
    monkeypatch.setattr(Kernel, "matvec", lambda self, x: shapes.append(x.shape) or real(self, x))
    rep = principal_value(op, method)
    assert rep.method == expected
    assert len(shapes) > 2 and set(shapes) == {(op.n,)}


@pytest.mark.parametrize("kind, solver", [("interval", "eigsh"), ("table", "eigs")])
def test_arpack_operator_takes_a_column(kind, solver, monkeypatch):
    """A LinearOperator may be handed an (n, 1) column; its product is then
    the (n,) product as a column."""
    op = sampled_operator(np.random.default_rng(4), kind, 100)
    real, seen = getattr(scipy.sparse.linalg, solver), []

    def checked(lin, **kwargs):
        x = np.linspace(1.0, 2.0, op.n)
        np.testing.assert_array_equal(lin.matvec(x[:, None]), lin.matvec(x)[:, None])
        seen.append(lin.shape)
        return real(lin, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, solver, checked)
    assert principal_value(op).method == ("lanczos" if solver == "eigsh" else "arnoldi")
    assert seen == [(op.n, op.n)]
