import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from nonlocalrd import verify
from nonlocalrd.equilibria import solve_phi
from nonlocalrd.evolve import IntegratorConfig, _propagate, evolve_nonlinear, monotone_config
from nonlocalrd.kernel import build_operator
from nonlocalrd.reaction import LogisticReaction, add_bump, structure_bounds
from nonlocalrd.space import MeasureSpace, build_graph, build_interval, merge_spaces
from nonlocalrd.spectral import principal_value
from nonlocalrd.verify import (
    _hops_to_cover,
    _run_trials,
    asymptotic_suite,
    comparison_suite,
    maximum_principle_suite,
    run_suite,
    sample_system,
    supersolution_suite,
)

SEED = 20240917


class TestSampler:
    def test_deterministic_given_seed(self):
        a = sample_system(np.random.default_rng([5, 0]))
        b = sample_system(np.random.default_rng([5, 0]))
        np.testing.assert_array_equal(a.op.amat, b.op.amat)
        np.testing.assert_array_equal(a.reaction.g0, b.reaction.g0)

    def test_nonneg_source_filter(self):
        for trial in range(12):
            sys_ = sample_system(np.random.default_rng([1, trial]), nonneg_g0=True)
            assert np.all(sys_.reaction.g0 >= 0)

    def test_strong_systems_are_certified(self):
        for trial in range(8):
            sys_ = sample_system(np.random.default_rng([2, trial]), strong=True)
            assert sys_.strong_certified


def test_shared_config_is_the_three_call_construction():
    # before, each reaction's (k, β) came from a monotone_config of its own
    kinds = set()
    for trial in range(16):
        rng = np.random.default_rng([7, trial])
        sys_ = sample_system(rng)
        op, f1 = sys_.op, sys_.reaction
        f0 = add_bump(f1, np.full(op.n, float(rng.uniform(0.0, 0.5))))
        for scale, t_end in ((1.5, 1.0), (1.0, 0.5)):
            probe = np.full(op.n, scale)
            c0 = monotone_config(op, f0, probe, t_end)
            c1 = monotone_config(op, f1, probe, t_end)
            old = monotone_config(op, f0, probe, t_end,
                                  trunc_k=max(c0.trunc_k or 0.0, c1.trunc_k or 0.0) or None,
                                  beta=max(c0.beta, c1.beta))
            assert verify._shared_monotone_config(op, f0, f1, scale, t_end) == old
            kinds.add(old.trunc_k is None)
    assert kinds == {True, False}


@pytest.mark.parametrize("suite, trials, seed", [
    pytest.param(comparison_suite, 12, SEED, id="comparison_suite"),
    pytest.param(maximum_principle_suite, 12, SEED, id="maximum_principle_suite"),
    pytest.param(supersolution_suite, 12, SEED, id="supersolution_suite"),
    # the command line's default size
    pytest.param(supersolution_suite, 50, 0, id="supersolution_suite-50-0"),
    pytest.param(supersolution_suite, 50, SEED, id="supersolution_suite-50-SEED"),
])
def test_exact_suites_pass(suite, trials, seed):
    rep = suite(trials, seed)
    assert rep.failures == 0, rep.details
    assert rep.worst_violation <= rep.tolerance
    assert rep.details[-1]["fired"]


def test_narrow_tophat_strong_check_uses_hop_chaining():
    # seed 3, trial 9 samples a certified tophat whose radius is below the
    # diameter: a single bump needs one step per hop before the minimum
    # turns positive, and the suite must account for that
    rep = maximum_principle_suite(10, 3)
    assert rep.failures == 0, rep.details


def _frozen_asymptotic_sample(rng):
    """The draws of the asymptotic suite's per-trial loop before its trials
    were stacked, kept as the reference the sampler must equal bitwise."""
    space = verify._sample_space(rng)
    kern = verify._sample_kernel(rng, space, strong=False)
    op = build_operator(kern, np.zeros(space.n))
    margin = float(rng.uniform(0.2, 1.0))
    ncoef = -(float(np.max(op.h0)) + margin)
    g = rng.uniform(0.1, 0.6, size=space.n)
    f = LogisticReaction(g=g, n=ncoef, m=float(rng.uniform(0.3, 1.0)),
                         rho=float(rng.choice([2.0, 3.0])), n_nodes=space.n)
    sb = structure_bounds(f, "plain")
    op_c = build_operator(kern, -sb.c)
    lam = principal_value(op_c).lam
    phi = solve_phi(kern, sb.c, sb.d)
    u0_in = 0.99 * rng.uniform(-1.0, 1.0, size=space.n) * phi
    u0 = (1.0 + rng.uniform(0.0, 2.0)) * phi + rng.uniform(0.0, 0.5, size=space.n)
    return op, f, op_c, lam, phi, u0_in, u0


def _frozen_asymptotic_trial(rng, fitted, last):
    """One trial of the per-trial asymptotic suite: its own two-row rk4 run."""
    op, f, op_c, lam, phi, u0_in, u0 = _frozen_asymptotic_sample(rng)
    cfg = IntegratorConfig(scheme="rk4", dt=5e-3, t_end=2.0, store_every=40)
    tr = evolve_nonlinear(op, f, np.stack([u0_in, u0]), cfg)
    inv_viol = float(np.max(np.abs(tr.states[:, 0]) - phi[None, :]))
    states = tr.states[:, 1]
    gap_plus = np.maximum(np.abs(u0) - phi, 0.0)
    props = _propagate(op_c.amat, np.column_stack([np.abs(u0) - phi, gap_plus]), tr.times)
    env_viol = float(np.max(np.abs(states) - (phi + props[:, :, 0])))
    delta = np.max(np.maximum(np.abs(states) - phi, 0.0), axis=1)
    decay_viol = float(np.max(delta - np.max(props[:, :, 1], axis=1)))
    fitted.append(float(np.max(delta * np.exp(0.5 * abs(lam) * tr.times))))
    last.update(states=states, phi=phi)
    return max(inv_viol, env_viol, decay_viol)


def _asymptotic_sampler(monkeypatch):
    """The suite's own sampler, taken from its call into the shared loop."""
    grabbed = {}

    def grab(prop, trials, seed, tol, trial, control, summary=None, check=None):
        grabbed.update(sample=trial, check=check)

    monkeypatch.setattr(verify, "_run_trials", grab)
    asymptotic_suite(1, 0)
    monkeypatch.undo()
    return grabbed["sample"]


def test_asymptotic_sampler_draws_the_per_trial_systems(monkeypatch):
    sample = _asymptotic_sampler(monkeypatch)
    for seed, t in [(0, 0), (0, 7), (1, 3), (7, 19), (SEED, 2)]:
        op, f, op_c, lam, phi, data = sample(np.random.default_rng([seed, t]), t)
        ref = _frozen_asymptotic_sample(np.random.default_rng([seed, t]))
        assert np.array_equal(op.kernel.jmat, ref[0].kernel.jmat)
        assert np.array_equal(op.space.x, ref[0].space.x)
        assert np.array_equal(op.h, ref[0].h) and np.array_equal(op_c.h, ref[2].h)
        for c in ("g", "ncoef", "m", "rho"):
            assert np.array_equal(getattr(f, c), getattr(ref[1], c))
        assert lam == ref[3] and np.array_equal(phi, ref[4])
        assert np.array_equal(data, np.stack(ref[5:]))


@pytest.mark.parametrize("trials, seed", [(20, 0), (9, 7)])
def test_stacked_asymptotic_suite_is_the_per_trial_suite(trials, seed, record_property):
    fitted, last = [], {}
    viols = [_frozen_asymptotic_trial(np.random.default_rng([seed, t]), fitted, last)
             for t in range(trials)]
    rep = asymptotic_suite(trials, seed)
    (summary,) = [d for d in rep.details if d["trial"] == "summary"]
    control = rep.details[-1]
    ref_control = float(np.max(np.abs(last["states"]) - last["phi"][None, :]))
    bitwise = (summary["fitted_M"] == fitted and rep.worst_violation == max(0.0, *viols)
               and control["violation"] == ref_control)
    record_property("bitwise", bitwise)  # OpenBLAS here: bitwise
    np.testing.assert_allclose(summary["fitted_M"], fitted, rtol=1e-12)
    assert rep.worst_violation == pytest.approx(max(0.0, *viols), rel=1e-12, abs=1e-15)
    assert control["violation"] == pytest.approx(ref_control, rel=1e-12)
    assert rep.failures == 0 and control["fired"]


def test_asymptotic_suite_makes_one_run_per_n_rho_group(monkeypatch):
    monkeypatch.setattr(verify, "_map", lambda fn, items: [fn(x) for x in items])
    runs, real = [], verify.evolve_nonlinear

    def counted(op, f, u0, cfg):
        runs.append((np.shape(u0), f.rho))
        return real(op, f, u0, cfg)

    monkeypatch.setattr(verify, "evolve_nonlinear", counted)
    rep = asymptotic_suite(20, 0)
    assert rep.failures == 0, rep.details
    # one (G, 2, n) stack per (n, ρ), the G summing to the trials
    keys = [(shape[2], rho) for shape, rho in runs]
    assert len(runs) == len(set(keys)) == 6
    assert all(len(shape) == 3 and shape[1] == 2 for shape, _ in runs)
    assert sum(shape[0] for shape, _ in runs) == 20


def test_asymptotic_blowup_reruns_its_group_trial_by_trial(monkeypatch):
    monkeypatch.setattr(verify, "_map", lambda fn, items: [fn(x) for x in items])
    trials, seed = 8, 0
    keys, real_sb = [], verify.structure_bounds

    def keyed(f, mode):  # called once per trial, in trial order
        keys.append((f.n_nodes, f.rho))
        return real_sb(f, mode)

    monkeypatch.setattr(verify, "structure_bounds", keyed)
    plain = asymptotic_suite(trials, seed)
    monkeypatch.undo()
    monkeypatch.setattr(verify, "_map", lambda fn, items: [fn(x) for x in items])
    forced = next(t for t, k in enumerate(keys) if keys.count(k) > 1)
    group = [t for t, k in enumerate(keys) if k == keys[forced]]

    # scale the forced trial's Φ, and so both its data, to where rk4 at dt = 5e-3 blows up
    calls, real_phi = [], verify.solve_phi

    def scaled_phi(*args):
        calls.append(args)
        return real_phi(*args) * (1e4 if len(calls) == forced + 1 else 1.0)

    monkeypatch.setattr(verify, "solve_phi", scaled_phi)
    built, real_build = [], verify.build_operator  # each trial builds op, then op_c
    monkeypatch.setattr(verify, "build_operator", lambda *a: built.append(real_build(*a)) or built[-1])
    runs, real = [], verify.evolve_nonlinear

    def recorded(op, f, u0, cfg):
        tr = real(op, f, u0, cfg)
        runs.append((op, f, np.array(u0), cfg, tr))
        return tr

    monkeypatch.setattr(verify, "evolve_nonlinear", recorded)
    rep = asymptotic_suite(trials, seed)

    blown = [i for i, r in enumerate(runs) if r[-1].blowup and r[2].shape[0] > 1]
    assert len(blown) == 1 and runs[blown[0]][2].shape[0] == len(group)
    singles = runs[blown[0] + 1: blown[0] + 1 + len(group)]
    assert [r[2].shape[0] for r in singles] == [1] * len(group)
    assert [r[-1].blowup for r in singles] == [t == forced for t in group]
    # the forced trial's rerun is its own one-system run, bit for bit
    op, f, u0, cfg, tr = singles[group.index(forced)]
    assert np.array_equal(op.amat[0], built[2 * forced].amat)
    one = real(built[2 * forced], LogisticReaction(f.g[0, 0], f.ncoef[0, 0], f.m[0, 0], f.rho),
               u0[0], cfg)
    assert one.blowup and one.metadata["blowup_time"] == tr.metadata["blowup_time"]
    assert np.array_equal(one.times, tr.times) and np.array_equal(one.states, tr.states[:, 0])
    # every other trial reads as in the unforced suite
    fit = [d for d in rep.details if d["trial"] == "summary"][0]["fitted_M"]
    fit0 = [d for d in plain.details if d["trial"] == "summary"][0]["fitted_M"]
    assert [x for t, x in enumerate(fit) if t != forced] == \
        [x for t, x in enumerate(fit0) if t != forced]
    assert [d["trial"] for d in rep.details if d.get("expected") is False] == [forced]


def _recorded_runs(monkeypatch):
    runs, real = [], verify.evolve_nonlinear

    def recorded(op, f, u0, cfg):
        tr = real(op, f, u0, cfg)
        runs.append((cfg, tr))
        return tr

    monkeypatch.setattr(verify, "evolve_nonlinear", recorded)
    monkeypatch.setattr(verify, "_map", lambda fn, items: [fn(x) for x in items])
    return runs


def test_supersolution_suite_stages_its_truncation(monkeypatch):
    # one level for all of [0, 1] took 27,389 steps here (20 trials and the control)
    runs = _recorded_runs(monkeypatch)
    assert supersolution_suite(20, 0).passed
    assert sum(int(tr.metadata["steps"][-1]) for _, tr in runs) <= 7000


def test_supersolution_truncation_never_bites(monkeypatch):
    runs = _recorded_runs(monkeypatch)
    supersolution_suite(20, 0)
    stages = runs[:-1]  # the last run is the control
    assert len(stages) > 20
    for cfg, tr in stages:
        assert np.max(np.abs(tr.states)) <= cfg.trunc_k


def test_asymptotic_suite_passes():
    rep = asymptotic_suite(6, SEED)
    assert rep.failures == 0, rep.details
    assert rep.worst_violation <= rep.tolerance
    # the control runs the trials' invariance check on a datum above Φ
    (control,) = [d for d in rep.details if d.get("expected")]
    assert control["fired"] and control["violation"] > rep.tolerance


def test_controls_have_teeth():
    for suite in (comparison_suite, maximum_principle_suite, supersolution_suite):
        rep = suite(2, SEED)
        controls = [d for d in rep.details if d.get("expected")]
        assert controls, "suite ran no hypothesis-violating controls"
        assert all(d["fired"] for d in controls)


def test_reports_are_deterministic_and_serializable():
    a = comparison_suite(5, 99).to_json()
    b = comparison_suite(5, 99).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["schema_version"] == "1"
    assert payload["trials"] == 5


@pytest.mark.parametrize("name, keys", [
    ("comparison", {"trial", "violation", "strong_ok", "expected"}),
    ("maximum", {"trial", "violation", "strong_ok", "expected"}),
    ("supersolution", {"trial", "violation", "expected"}),
    ("asymptotic", {"trial", "violation", "expected"}),
])
def test_every_trial_over_a_negative_tolerance_is_a_counted_failure(monkeypatch,
                                                                     name, keys):
    # no violation is <= -inf, and every control fires against it
    monkeypatch.setattr(verify, "EXACT_TOL", -np.inf)
    monkeypatch.setattr(verify, "SOFT_TOL", -np.inf)
    rep = run_suite(name, 3, SEED)
    failed = [d for d in rep.details if d.get("expected") is False]
    assert [d["trial"] for d in failed] == [0, 1, 2]
    assert all(set(d) == keys for d in failed)
    assert rep.failures == 3 and rep.tolerance == -np.inf
    assert rep.details[-1]["fired"]


def _loop(trial_results, fired=True, tol=0.1):
    def trial(rng, t):
        return trial_results[t]

    def control(rng):
        return "probe", fired, {"violation": 7.0}

    return _run_trials("probe", len(trial_results), 0, tol, trial, control)


def test_shared_loop_fails_a_strong_check_within_tolerance():
    rep = _loop([(0.0, {"strong_ok": True}), (0.05, {"strong_ok": False})])
    assert rep.failures == 1
    assert rep.details[0] == {"trial": 1, "violation": 0.05, "strong_ok": False,
                              "expected": False}
    assert rep.worst_violation == 0.05


def test_shared_loop_ignores_negative_violations_for_worst():
    rep = _loop([(-3.0, {}), (-0.5, {})])
    assert rep.failures == 0 and rep.worst_violation == 0.0
    assert _loop([(-3.0, {}), (0.02, {}), (-0.5, {})]).worst_violation == 0.02


def test_shared_loop_counts_a_silent_control_once():
    rep = _loop([(0.0, {}), (0.5, {})], fired=False)
    assert rep.failures == 2 and not rep.passed
    assert rep.details[-1] == {"trial": "control:probe", "expected": True,
                               "fired": False, "control_failed": True,
                               "violation": 7.0}
    rep = _loop([(0.0, {})], fired=True)
    assert rep.failures == 0 and rep.details[-1]["control_failed"] is False


def test_shared_loop_needs_a_trial():
    with pytest.raises(ValueError, match="trials"):
        _loop([])


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("positivity", 5, 0)


def _reference_hops_to_cover(space, r, support):
    """The multi-source frontier loop _hops_to_cover ran before it called
    scipy.sparse.csgraph; kept as the reference its results must equal."""
    adj = space.dist < r
    seen = np.array(support, dtype=bool)
    hops = 0
    while not seen.all():
        new = (adj & seen[None, :]).any(axis=1) & ~seen
        if not new.any():
            return len(seen) + 1
        seen |= new
        hops += 1
    return max(hops, 1)


def _random_space(rng):
    kind = rng.integers(3)
    if kind == 0:
        return build_interval(0.0, rng.uniform(0.5, 2.0), int(rng.integers(1, 40)))
    if kind == 1:
        return merge_spaces(build_interval(0.0, 0.5, int(rng.integers(1, 12))),
                            build_interval(rng.uniform(0.5, 0.9), 1.2,
                                           int(rng.integers(1, 12))))
    vertices = int(rng.integers(2, 30))
    edges = []
    for _ in range(int(rng.integers(0, 3 * vertices + 1))):
        i, j = (int(v) for v in rng.choice(vertices, size=2, replace=False))
        edges.append((i, j, float(rng.choice([0.1, 0.2, rng.uniform(0.05, 1.0)]))))
    return build_graph(vertices, edges, np.ones(vertices))


def test_hops_to_cover_matches_reference():
    rng = np.random.default_rng(31)
    outcomes = set()
    for _ in range(300):
        space = _random_space(rng)
        radii = [float(rng.uniform(0.02, 0.6))] + [float(v) for v in rng.choice(
            space.dist.ravel(), size=2) if v > 0]
        supports = [rng.random(space.n) < p for p in (0.05, 0.3, 1.0)]
        supports += [np.zeros(space.n, dtype=bool), np.eye(1, space.n, 0, dtype=bool)[0]]
        for r in radii:
            for support in supports:
                hops = _hops_to_cover(space, r, support)
                assert hops == _reference_hops_to_cover(space, r, support)
                assert type(hops) is int
                outcomes.add("never" if hops == space.n + 1 else min(hops, 3))
    assert outcomes == {"never", 1, 2, 3}


def test_hops_to_cover_empty_and_unreachable_support():
    space = merge_spaces(build_interval(0.0, 0.4, 4), build_interval(0.6, 1.0, 4))
    assert _hops_to_cover(space, 0.15, np.zeros(8, dtype=bool)) == 9
    assert _hops_to_cover(space, 0.15, np.arange(8) < 4) == 9
    assert _hops_to_cover(space, 0.15, np.arange(8) == 0) == 9
    assert _hops_to_cover(space, 0.15, np.arange(8) % 4 == 0) == 3
    assert _hops_to_cover(space, 5.0, np.arange(8) == 0) == 1
    assert _hops_to_cover(space, 5.0, np.ones(8, dtype=bool)) == 1
    assert _hops_to_cover(build_interval(0, 1, 1), 0.5, [True]) == 1
    assert _hops_to_cover(build_interval(0, 1, 1), 0.5, [False]) == 2


def test_hops_to_cover_on_a_metric_asymmetric_at_r():
    """d(1, 2) = 1 - 4e-13 < r = 1 <= d(2, 1) as given: MeasureSpace stores
    the smaller distance both ways, so positivity crosses that hop both
    ways and a bump at either end covers the path in three hops."""
    x = np.array([0.0, 0.5, 1.5, 2.0])
    d = np.abs(x[:, None] - x[None, :])
    d[1, 2] -= 4e-13
    space = MeasureSpace(points=None, weights=np.ones(4), dist=d, kind="graph")
    for support, hops in ((np.arange(4) == 3, 3), (np.arange(4) == 0, 3),
                          (np.arange(4) == 2, 2)):
        assert _hops_to_cover(space, 1.0, support) == hops
        assert _reference_hops_to_cover(space, 1.0, support) == hops


def _serial(fn, items):
    return [fn(x) for x in items]


MULTI_CPU = pytest.mark.skipif(
    not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda pid: {0})(0)) < 2,
    reason="needs fork and at least two CPUs in the affinity mask")


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns to this process, one per child forked."""
    pids, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(real()) or pids[-1])
    return pids


@MULTI_CPU
@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_forked_suites_report_the_serial_bytes(monkeypatch, forks, name, seed):
    forked = run_suite(name, 20, seed).to_json()
    assert forks
    monkeypatch.setattr(verify, "_map", _serial)
    assert forked == run_suite(name, 20, seed).to_json()


@pytest.mark.parametrize("n", range(1, 6))
def test_map_keeps_the_order(n):
    assert verify._map(lambda x: (x * x, str(x)), range(n)) == [(x * x, str(x)) for x in range(n)]


@MULTI_CPU
def test_map_runs_the_shares_in_other_processes(forks):
    pids = [pid for _, pid in verify._map(lambda x: (x, os.getpid()), range(5))]
    assert pids[0] == pids[2] == pids[4] == os.getpid()
    assert pids[1] == pids[3] != os.getpid() and pids[1] in forks


@MULTI_CPU
def test_map_raises_a_childs_exception_in_the_caller():
    def fn(x):  # item 1 is the first child's
        if x == 1:
            raise KeyError("raised in a child")
        return x

    with pytest.raises(KeyError, match="raised in a child"):
        verify._map(fn, range(4))


@MULTI_CPU
def test_map_raises_its_own_exception_before_a_childs():
    def fn(x):
        raise (ValueError if x == 0 else KeyError)(f"item {x}")

    with pytest.raises(ValueError, match="item 0"):
        verify._map(fn, range(2))


@MULTI_CPU
def test_map_raises_on_a_result_that_cannot_be_pickled():
    with pytest.raises(RuntimeError, match="lambda"):
        verify._map(lambda x: (lambda: x), range(2))


@MULTI_CPU
def test_map_children_neither_return_nor_flush_the_callers_output():
    # stdout is a pipe here, so "before" sits unflushed in the buffer every child copies
    script = ("from nonlocalrd.verify import _map\n"
              "print('before', end=' ')\n"
              "assert _map(abs, range(-3, 3)) == [3, 2, 1, 0, 1, 2]\n"
              "print('returned')\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "before returned\n", "")


def test_map_runs_serially_on_one_cpu(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert verify._map(lambda x: (x, os.getpid()), range(3)) == [(x, os.getpid()) for x in range(3)]
    assert forks == []


def test_map_runs_serially_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    assert verify._map(lambda x: (x, os.getpid()), range(3)) == [(x, os.getpid()) for x in range(3)]


def test_map_runs_serially_beside_a_second_thread(forks):
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        out = verify._map(lambda x: (x, os.getpid()), range(3))
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert out == [(x, os.getpid()) for x in range(3)] and forks == []
