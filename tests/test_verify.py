import json

import numpy as np
import pytest

from nonlocalrd import verify
from nonlocalrd.evolve import monotone_config
from nonlocalrd.reaction import add_bump
from nonlocalrd.space import MeasureSpace, build_graph, build_interval, merge_spaces
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


def test_asymptotic_suite_makes_one_two_row_run_per_trial(monkeypatch):
    runs, real = [], verify.evolve_nonlinear

    def counted(op, f, u0, cfg):
        runs.append(np.shape(u0))
        return real(op, f, u0, cfg)

    monkeypatch.setattr(verify, "evolve_nonlinear", counted)
    rep = asymptotic_suite(3, 0)
    assert rep.failures == 0, rep.details
    assert len(runs) == 3 and all(shape[0] == 2 for shape in runs)


def _recorded_runs(monkeypatch):
    runs, real = [], verify.evolve_nonlinear

    def recorded(op, f, u0, cfg):
        tr = real(op, f, u0, cfg)
        runs.append((cfg, tr))
        return tr

    monkeypatch.setattr(verify, "evolve_nonlinear", recorded)
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
