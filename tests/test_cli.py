import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlocalrd.cli import _EXPR_NAMES, _eval_expr, _write_profile, _write_trajectory, main
from nonlocalrd.evolve import Trajectory
from nonlocalrd.space import build_graph, build_interval


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "space": {"type": "interval", "a": 0.0, "b": 1.0, "n": 64},
        "kernel": {"law": "constant", "c": 1.0},
        "potential": {"kind": "h0"},
        "reaction": {"kind": "logistic", "g": 0.0, "n": 2.0, "m": 1.0, "rho": 3.0},
        "u0": {"kind": "constant", "value": 0.5},
        "integrator": {"scheme": "rk4", "dt": 0.01, "t_end": 0.5, "store_every": 10},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestSpectrumCommand:
    def test_threshold_lambda_is_zero(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = main(["--out", str(tmp_path), "spectrum", "--config", str(cfg)])
        assert rc == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert abs(payload["lambda"]) <= 1e-10
        assert payload["schema_version"] == "1"
        cert = payload["certificate"]
        assert cert["lower"] - 1e-12 <= payload["lambda"] <= cert["upper"] + 1e-12
        assert cert["upper"] - cert["lower"] <= 1e-10

    def test_eigenfunction_csv_has_node_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = main(["--out", str(tmp_path), "spectrum", "--config", str(cfg),
                   "--emit-eigenfunction", "ef.csv"])
        assert rc == 0
        with open(tmp_path / "ef.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["node", "x", "value"]
        assert len(rows) == 65

    def test_negative_table_entry_exits_2_with_location(self, tmp_path, capsys):
        bad = np.ones((4, 4))
        bad[2, 1] = -1.0
        np.savetxt(tmp_path / "mat.csv", bad, delimiter=",")
        cfg = write_config(tmp_path, space={"type": "interval", "a": 0, "b": 1, "n": 4},
                           kernel={"law": "table", "path": str(tmp_path / "mat.csv")})
        rc = main(["--out", str(tmp_path), "spectrum", "--config", str(cfg)])
        assert rc == 2
        assert "(2,1)" in capsys.readouterr().err

    def test_non_numeric_table_cell_exits_2_naming_the_path(self, tmp_path, capsys):
        (tmp_path / "mat.csv").write_text("1,2\na,b\n")
        cfg = write_config(tmp_path, space={"type": "interval", "a": 0, "b": 1, "n": 2},
                           kernel={"law": "table", "path": str(tmp_path / "mat.csv")})
        rc = main(["--out", str(tmp_path), "--dry-run", "evolve", "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: config field 'kernel.path': ")

    def test_non_finite_kernel_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, kernel={"law": "gaussian", "sigma": float("nan")})
        rc = main(["--out", str(tmp_path), "spectrum", "--config", str(cfg)])
        assert rc == 2
        assert "kernel" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.json").exists()

    def test_dry_run_validates_without_output(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = main(["--out", str(tmp_path / "dry"), "--dry-run",
                   "spectrum", "--config", str(cfg)])
        assert rc == 0
        assert not (tmp_path / "dry" / "spectrum.json").exists()


class TestEvolveCommand:
    def test_trajectory_csv_and_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = main(["--out", str(tmp_path), "evolve", "--config", str(cfg)])
        assert rc == 0
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["t", "node_0"]
        assert len(rows[0]) == 65
        payload = json.loads((tmp_path / "evolve.json").read_text())
        assert payload["scheme"] == "rk4"
        assert not payload["blowup"]
        assert "lyapunov" in payload  # constant kernel is symmetric
        lyap = payload["lyapunov"]
        assert all(b <= a + 1e-8 for a, b in zip(lyap, lyap[1:]))

    def test_missing_u0_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["u0"]
        cfg.write_text(json.dumps(raw))
        rc = main(["--out", str(tmp_path), "evolve", "--config", str(cfg)])
        assert rc == 2

    def test_expression_potential_and_datum(self, tmp_path):
        cfg = write_config(tmp_path,
                           potential={"kind": "expr", "expr": "1 + 0.5*sin(2*pi*x)"},
                           u0={"kind": "expr", "expr": "0.1*exp(-x)"})
        rc = main(["--out", str(tmp_path), "evolve", "--config", str(cfg)])
        assert rc == 0

    def test_bad_expression_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, potential={"kind": "expr", "expr": "import os"})
        rc = main(["--out", str(tmp_path), "evolve", "--config", str(cfg)])
        assert rc == 2
        assert "potential" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", [
        "().__class__.__mro__[1].__subclasses__()",
        "x.__class__",
        "x[0]",
        "(lambda y: y)(x)",
        "[y for y in x][0]",
        "sum(y for y in x)",
        "sin(x, out=x)",
        "sin(x, x)",
        "abs(x, x)",
        "minimum(x, 1.0, x)",
        "where(x > 0.5)",
        "where(x > 0.5, x, 0.0, x)",
        "sin(**{'x': x})",
        "sin(*[x])",
        "__import__('os')",
        "(y := x)",
        "'x'",
        "x if x else 1",
        "pi(x)",
        "9.0 ** 9 ** 9",
    ])
    def test_expression_outside_the_grammar_exits_2(self, tmp_path, capsys, expr):
        cfg = write_config(tmp_path, potential={"kind": "expr", "expr": expr})
        rc = main(["--out", str(tmp_path), "evolve", "--config", str(cfg)])
        assert rc == 2
        assert "config field 'potential'" in capsys.readouterr().err
        assert not (tmp_path / "evolve.json").exists()

    @pytest.mark.parametrize("expr", [
        "1.0193 + 0.4871*sin(2*pi*x)",
        "0.98 + 0.31*cos(2*pi*x)",
        "1.0 + 0.0021*x",
        "-x**2 + 3 % 2 - +x / 7",
        "where(x < 0.5, exp(-x), sqrt(abs(tanh(x) - e)))",
        "maximum(minimum(log(1 + x), 0.3), tan(x / 4))",
        "(x >= 0.25) * 1.0 + (x != 0.5) - (x == 0.75) + (x <= 0.1)",
        "2 ** -1 + 10 % 3",
    ])
    def test_expression_values_match_python_evaluation(self, expr):
        x = np.linspace(0.0, 1.0, 17)
        ref = eval(expr, {"__builtins__": {}}, dict(_EXPR_NAMES, x=x))  # trusted literal
        ref = np.broadcast_to(np.asarray(ref, dtype=float), x.shape)
        assert _eval_expr(expr, x, "potential").tobytes() == ref.tobytes()

    @pytest.mark.parametrize("expr", ["sin(x, x)", "minimum(x, 1.0, x)", "where(x > 0.5)"])
    def test_calls_take_exactly_their_arity(self, expr):
        from nonlocalrd.cli import ConfigError
        with pytest.raises(ConfigError, match="Call is not allowed"):
            _eval_expr(expr, np.linspace(0.0, 1.0, 5), "u0")

    def test_expression_cannot_write_into_x(self, monkeypatch):
        # with the arity check lifted, the read-only copy still stops an `out`
        import nonlocalrd.cli as climod
        from nonlocalrd.cli import ConfigError
        monkeypatch.setitem(climod._EXPR_ARITY, "sin", 2)
        x = np.linspace(0.0, 1.0, 5)
        before = x.copy()
        with pytest.raises(ConfigError, match="read-only"):
            _eval_expr("sin(x, x)", x, "u0")
        assert x.tobytes() == before.tobytes()
        assert x.flags.writeable

    def test_numbers_are_floats(self):
        # as integers this would be 10.0; as floats 10**400 overflows
        from nonlocalrd.cli import ConfigError
        with pytest.raises(ConfigError, match="config field 'u0'"):
            _eval_expr("10 ** 400 / 10 ** 399", np.zeros(3), "u0")

    def test_chained_comparison_is_elementwise(self):
        x = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(_eval_expr("0.2 < x <= 0.6", x, "u0"),
                                      ((x > 0.2) & (x <= 0.6)).astype(float))


    def test_non_finite_u0_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, u0={"kind": "expr", "expr": "log(x - 2)"})
        with np.errstate(invalid="ignore"):
            rc = main(["--out", str(tmp_path), "evolve", "--config", str(cfg)])
        assert rc == 2
        assert "config field 'u0'" in capsys.readouterr().err
        assert not (tmp_path / "evolve.json").exists()

    @pytest.mark.parametrize("command", ["evolve", "equilibria"])
    @pytest.mark.parametrize("field", ["potential", "reaction.g", "reaction.n", "reaction.m",
                                       "reaction.rho"])
    def test_non_finite_coefficient_exits_2(self, tmp_path, capsys, command, field):
        """A NaN coefficient stops the command before it runs and names its
        field; unchecked, it reads as a blow-up at the first step (evolve) or
        as a structure error naming no field (equilibria).  u0 is read by
        evolve only; test_non_finite_u0_exits_2 covers it."""
        nan = {"kind": "expr", "expr": "log(x - 2)"}
        reaction = {"kind": "logistic", "g": 0.0, "n": 2.0, "m": 1.0, "rho": 3.0}
        if field == "potential":
            cfg = write_config(tmp_path, potential=nan)
        else:
            key = field.split(".")[1]
            reaction[key] = math.nan if key == "rho" else nan
            cfg = write_config(tmp_path, reaction=reaction)
        with np.errstate(invalid="ignore"):
            rc = main(["--out", str(tmp_path), command, "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        # ρ is a number, not a node vector: the reaction section's error names it
        named = "config field 'reaction': exponent rho" if field == "reaction.rho" else \
            f"config field '{field}': must be finite"
        assert named in err
        assert not (tmp_path / f"{command}.json").exists()

    @pytest.mark.parametrize("command", ["evolve", "equilibria"])
    @pytest.mark.parametrize("key", ["exponent", "scale"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_power_coefficient_exits_2(self, tmp_path, capsys, command, key, value):
        """Unchecked, "scale": NaN read as a blow-up at the first step."""
        cfg = write_config(tmp_path, reaction={"kind": "power", key: value})
        rc = main(["--out", str(tmp_path), command, "--config", str(cfg)])
        assert rc == 2
        assert f"config field 'reaction.{key}': must be finite" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.json").exists()

    @pytest.mark.parametrize("scheme", ["rk4", "vcf_exact_linear"])
    def test_propagator_key(self, tmp_path, scheme):
        cfg = write_config(tmp_path, integrator={"scheme": scheme, "dt": 0.01,
                                                 "t_end": 0.1})
        rc = main(["--out", str(tmp_path), "evolve", "--config", str(cfg)])
        assert rc == 0
        prop = json.loads((tmp_path / "evolve.json").read_text())["propagator"]
        if scheme == "rk4":
            assert prop is None
        else:
            assert set(prop) == {"taylor_degree", "squarings"}
            assert prop["squarings"] == 0 and prop["taylor_degree"] >= 1


class TestEquilibriaCommand:
    def test_profiles_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, potential={"kind": "constant", "value": 0.0})
        rc = main(["--out", str(tmp_path), "equilibria", "--config", str(cfg)])
        assert rc == 0
        payload = json.loads((tmp_path / "equilibria.json").read_text())
        assert payload["phi_M_range"][1] == pytest.approx(math.sqrt(3), abs=1e-6)
        with open(tmp_path / "phi_M.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 65

    def test_threshold_potential_is_a_precondition_error(self, tmp_path, capsys):
        # h = h0 and f = 0 put the envelope bound at Λ = 0 exactly
        cfg = write_config(tmp_path, kernel={"law": "tophat", "R": 0.25, "J0": 1.0},
                           reaction={"kind": "logistic", "g": 0.0, "n": 0.0, "m": 0.0,
                                     "rho": 3.0})
        rc = main(["--out", str(tmp_path), "equilibria", "--config", str(cfg)])
        assert rc == 2
        assert "spectral precondition" in capsys.readouterr().err

    @pytest.mark.parametrize("dry", [True, False])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-3"])
    def test_epsilon_must_be_positive_and_finite(self, tmp_path, capsys, dry, value):
        cfg = write_config(tmp_path, potential={"kind": "constant", "value": 0.0})
        rc = main(["--out", str(tmp_path)] + ["--dry-run"] * dry
                  + ["equilibria", "--config", str(cfg), f"--epsilon={value}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config field 'epsilon': ")
        assert "config ok" not in captured.out
        assert not (tmp_path / "equilibria.json").exists()


class TestVerifyCommand:
    def test_pass_exit_zero(self, tmp_path):
        rc = main(["--out", str(tmp_path), "verify", "--suite", "comparison",
                   "--trials", "4", "--seed", "7"])
        assert rc == 0
        payload = json.loads((tmp_path / "verify_comparison.json").read_text())
        assert payload["failures"] == 0

    @pytest.mark.parametrize("suite", ["comparison", "maximum", "supersolution",
                                       "asymptotic"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_suite_needs_a_trial(self, tmp_path, capsys, suite, trials):
        rc = main(["--out", str(tmp_path), "verify", "--suite", suite,
                   "--trials", trials])
        assert rc == 2
        assert "trials" in capsys.readouterr().err
        assert not (tmp_path / f"verify_{suite}.json").exists()

    @pytest.mark.parametrize("argv, seed", [
        (["--seed", "5", "verify"], 5),
        (["verify", "--seed", "7"], 7),
        (["--seed", "5", "verify", "--seed", "7"], 7),
        (["verify"], 0),
    ])
    def test_seed_given_before_or_after_the_command(self, tmp_path, argv, seed):
        rc = main(["--out", str(tmp_path)] + argv + ["--suite", "comparison",
                                                      "--trials", "1"])
        assert rc == 0
        payload = json.loads((tmp_path / "verify_comparison.json").read_text())
        assert payload["seed"] == seed


class TestCaseCommand:
    def test_shift_table_values(self, tmp_path):
        rc = main(["--out", str(tmp_path), "case", "shift", "--set", "n=256"])
        assert rc == 0
        payload = json.loads((tmp_path / "case_shift.json").read_text())
        row = next(r for r in payload["table"] if r["A"] == 3.0)
        closed = (-(3.0 - 1.0) + math.sqrt(10.0)) / 2.0
        assert row["lambda_H"] == pytest.approx(closed, abs=1e-9)
        assert row["bound_rhs"] == pytest.approx(-1.0, abs=1e-9)

    def test_bistable_residuals(self, tmp_path):
        rc = main(["--out", str(tmp_path), "case", "bistable"])
        assert rc == 0
        payload = json.loads((tmp_path / "case_bistable.json").read_text())
        assert all(r <= 1e-12 for r in payload["residuals"])
        assert payload["overlap_measure_0_vs_2"] >= 0.3

    def test_logistic_super_reaches_root(self, tmp_path):
        rc = main(["--out", str(tmp_path), "case", "logistic-super",
                   "--set", "n=64", "--set", "t_end=20.0"])
        assert rc == 0
        payload = json.loads((tmp_path / "case_logistic-super.json").read_text())
        assert payload["phi_M_value"] == pytest.approx(math.sqrt(3), abs=1e-6)
        assert all(d <= 1e-4 for d in payload["trial_distances_to_phi_M"])

    def test_logistic_sub_decays(self, tmp_path):
        rc = main(["--out", str(tmp_path), "case", "logistic-sub",
                   "--set", "n=64", "--set", "t_end=15.0"])
        assert rc == 0
        payload = json.loads((tmp_path / "case_logistic-sub.json").read_text())
        assert payload["lambda_of_n"] < 0
        assert payload["phi_M_value"] == pytest.approx(0.0, abs=1e-6)

    def test_logistic_trials_are_one_run(self, tmp_path, monkeypatch):
        import nonlocalrd.evolve as evmod

        runs, real = [], evmod.evolve_nonlinear

        def counted(op, f, u0, cfg):
            runs.append(np.shape(u0))
            return real(op, f, u0, cfg)

        monkeypatch.setattr(evmod, "evolve_nonlinear", counted)
        rc = main(["--out", str(tmp_path), "case", "logistic-sub",
                   "--set", "n=32", "--set", "t_end=5.0"])
        assert rc == 0 and runs == [(2, 32)]
        payload = json.loads((tmp_path / "case_logistic-sub.json").read_text())
        assert len(payload["trial_distances_to_phi_M"]) == 2

    @pytest.mark.parametrize("trials", ["[]", "[[0.1, 0.2]]", "0.5", "[0.5, \"x\"]"])
    def test_logistic_trials_must_be_a_flat_list(self, tmp_path, capsys, trials):
        rc = main(["--out", str(tmp_path), "case", "logistic-sub",
                   "--set", "n=16", "--set", f"trials={trials}"])
        assert rc == 2
        assert "config field 'trials'" in capsys.readouterr().err
        assert not (tmp_path / "case_logistic-sub.json").exists()

    def test_blowup_case(self, tmp_path):
        rc = main(["--out", str(tmp_path), "case", "blowup", "--set", "n=32"])
        assert rc == 0
        payload = json.loads((tmp_path / "case_blowup.json").read_text())
        assert payload["blowup"]
        assert payload["blowup_time"] < 0.1
        assert payload["dominated"]

    def test_shift_table_equals_the_per_level_loop(self, tmp_path):
        from nonlocalrd import spectral as spmod
        from nonlocalrd.cli import _case_system
        from nonlocalrd.kernel import build_operator
        levels = [1, 3.5, 10.0, 100.0, 0.25]
        rc = main(["--out", str(tmp_path), "case", "shift", "--set", "n=64",
                   "--set", f"levels={json.dumps(levels)}"])
        assert rc == 0
        # the loop as it ran before the restricted solves were shared by the levels
        space, kern, _ = _case_system(64)
        h, mask, rows = np.zeros(64), space.x > 0.5, []
        for a in levels:
            shifted = spmod.shifted_potential(h, mask, float(a))
            lam = spmod.principal_value(build_operator(kern, -shifted)).lam
            rhs = spmod.shift_bound_rhs(kern, h, mask, float(a))
            closed = (-(a - 1.0) + math.sqrt(a * a + 1.0)) / 2.0
            rows.append([repr(float(a)), repr(lam), repr(rhs), repr(closed)])
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["A", "lambda_H", "bound_rhs", "closed_form"])
            w.writerows(rows)
        assert (tmp_path / "shift_table.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_malformed_override_exits_2(self, tmp_path):
        rc = main(["--out", str(tmp_path), "case", "shift", "--set", "oops"])
        assert rc == 2

    @pytest.mark.parametrize("item", ["n.x=1", "levels.x=1", "n.x.y=1"])
    def test_override_through_a_non_object_exits_2(self, tmp_path, capsys, item):
        rc = main(["--out", str(tmp_path), "case", "shift", "--set", item])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: config field '--set': ")
        assert not (tmp_path / "case_shift.json").exists()

    @pytest.mark.parametrize("case, item, key", [
        ("shift", "levels=5", "levels"),
        ("bistable", "measures=1", "measures"),
        ("shift", "n=abc", "n"),
        ("shift", "n=[64]", "n"),
        ("blowup", "u0=true", "u0"),
        ("logistic-sub", "trials=\"0.5\"", "trials"),
        ("bistable", "measures=[1,2]", "measures"),
        ("bistable", "measures=[[0.5,\"x\"]]", "measures"),
        ("bistable", "measures=[[]]", "measures"),
        ("shift", "levels=[\"a\"]", "levels"),
        ("shift", "levels=[]", "levels"),
        ("shift", "levels=[1.0,true]", "levels"),
    ])
    def test_override_of_another_type_exits_2_naming_the_key(self, tmp_path, capsys,
                                                              case, item, key):
        rc = main(["--out", str(tmp_path), "case", case, "--set", item])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: config field '{key}': ")
        assert not (tmp_path / f"case_{case}.json").exists()

    @pytest.mark.parametrize("dry", [True, False])
    @pytest.mark.parametrize("item, key", [("nn=64", "nn"), ("foo.bar=1", "foo")])
    def test_unknown_override_key_exits_2_naming_it(self, tmp_path, capsys, dry, item, key):
        rc = main(["--out", str(tmp_path)] + ["--dry-run"] * dry
                  + ["case", "shift", "--set", "n=64", "--set", item])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config field '{key}': ")
        assert "config ok" not in captured.out
        assert not (tmp_path / "case_shift.json").exists()

    @pytest.mark.parametrize("dry", [True, False])
    @pytest.mark.parametrize("case, item, key", [
        ("logistic-sub", "t_end=Infinity", "t_end"),
        ("logistic-sub", "t_end=NaN", "t_end"),
        ("logistic-sub", "m=NaN", "m"),
        ("logistic-sub", "trials=[0.5,NaN]", "trials"),
        ("bistable", "lambda=NaN", "lambda"),
        ("bistable", "measures=[[0.5,-Infinity,0.5]]", "measures"),
        ("shift", "levels=[1.0,Infinity]", "levels"),
    ])
    def test_non_finite_override_exits_2_naming_the_key(self, tmp_path, capsys, dry,
                                                        case, item, key):
        rc = main(["--out", str(tmp_path)] + ["--dry-run"] * dry + ["case", case, "--set", item])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config field '{key}': ")
        assert "config ok" not in captured.out
        assert not (tmp_path / f"case_{case}.json").exists()

    @pytest.mark.parametrize("item", ["measures=[[0.5,0.5],[0.2,0.3,0.5]]",
                                      "measures=[[1,0]]"])
    def test_well_shaped_measures_pass(self, tmp_path, capsys, item):
        rc = main(["--out", str(tmp_path), "--dry-run", "case", "bistable", "--set", item])
        assert rc == 0 and capsys.readouterr().out == "config ok\n"

    def test_an_int_may_replace_a_float(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "--dry-run", "case", "blowup", "--set", "u0=10"])
        assert rc == 0 and capsys.readouterr().out == "config ok\n"

    def test_unknown_case_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--out", str(tmp_path), "case", "heatwave"])


class TestOtherSpaces:
    def test_graph_space_spectrum(self, tmp_path):
        cfg = write_config(
            tmp_path,
            space={"type": "graph", "vertices": 3,
                   "edges": [[0, 1, 1.0], [1, 2, 1.0]],
                   "measures": [0.5, 1.0, 0.5]},
            potential={"kind": "constant", "value": 0.0},
            kernel={"law": "tophat", "R": 1.5, "J0": 1.0})
        rc = main(["--out", str(tmp_path), "spectrum", "--config", str(cfg)])
        assert rc == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert payload["lambda"] > 0

    def test_union_space_dry_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            space={"type": "union", "parts": [
                {"type": "interval", "a": 0.0, "b": 0.4, "n": 8},
                {"type": "interval", "a": 0.6, "b": 1.0, "n": 8}]})
        rc = main(["--out", str(tmp_path), "--dry-run", "spectrum",
                   "--config", str(cfg)])
        assert rc == 0


def test_round_trip_is_bit_identical(tmp_path):
    cfg = write_config(tmp_path)
    for sub in ("a", "b"):
        rc = main(["--out", str(tmp_path / sub), "evolve", "--config", str(cfg)])
        assert rc == 0
    assert (tmp_path / "a" / "evolve.json").read_bytes() == \
        (tmp_path / "b" / "evolve.json").read_bytes()
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
        (tmp_path / "b" / "trajectory.csv").read_bytes()


_INTERVAL = {"type": "interval", "a": 0.0, "b": 1.0}
_GRAPH = {"type": "graph", "vertices": 3, "measures": [1.0, 1.0, 1.0]}


@pytest.mark.parametrize("overrides, field", [
    ({"space": 5}, "space"),
    ({"kernel": 5}, "kernel"),
    ({"integrator": 5}, "integrator"),
    ({"reaction": [1]}, "reaction"),
    ({"space": {**_INTERVAL, "n": "16"}}, "space"),
    ({"space": {**_INTERVAL, "n": 16.5}}, "space"),
    ({"potential": {"kind": "constant"}}, "potential"),
    ({"integrator": {"t_end": float("inf")}}, "integrator"),
    ({"integrator": {"dt": float("nan")}}, "integrator"),
    ({"potential": ["x"] * 64}, "potential"),
    ({"potential": {"kind": "constant", "value": "abc"}}, "potential"),
    ({"u0": [0.5] * 63 + ["x"]}, "u0"),
    ({"reaction": {"kind": "logistic", "g": {"kind": "constant"}}}, "reaction.g"),
    ({"space": {"type": "union", "parts": [{**_INTERVAL, "n": 4}, {"type": "blob"}]}},
     "space.type"),
    ({"space": {**_GRAPH, "edges": [[0, 1, 1.0], [0, 1.5, 1.0]]}}, "space"),
    ({"space": {**_GRAPH, "edges": [[0, 1, 1.0], [0, 1.0, 1.0]]}}, "space"),
    ({"space": {**_GRAPH, "edges": [[0, 1, 1.0], [1, 2, float("nan")]]}}, "space"),
    ({"space": {**_GRAPH, "edges": [[0, 1, 1.0], [1, 2, float("inf")]]}}, "space"),
])
def test_malformed_section_exits_2_naming_the_field(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, **overrides)
    rc = main(["--out", str(tmp_path), "evolve", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    # the innermost field is named, once
    assert err.startswith(f"error: config field '{field}': ")
    assert err.count("config field") == 1


@pytest.mark.parametrize("key, value", [
    ("beta", float("nan")), ("beta", "abc"), ("trunc_k", float("nan")), ("trunc_k", -1),
    ("blowup_threshold", float("nan")), ("blowup_threshold", -1),
])
def test_bad_integrator_key_exits_2_naming_it(tmp_path, capsys, key, value):
    integrator = {"scheme": "euler_op", "dt": 0.01, "t_end": 0.1, key: value}
    cfg = write_config(tmp_path, space={**_INTERVAL, "n": 32}, integrator=integrator)
    rc = main(["--out", str(tmp_path), "evolve", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'integrator': ") and key in err
    assert not (tmp_path / "evolve.json").exists()


@pytest.mark.parametrize("top", ["5", "[]", '"x"'])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, top):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(top)
    rc = main(["--out", str(tmp_path), "spectrum", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config field 'config': ")


_AWKWARD = [-0.0, 1e-300, 1 / 3, 2.0, -7.0, 0.0, 1e300, 5e-324]


def _reference_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


def test_trajectory_csv_bytes_match_per_value_repr(tmp_path):
    states = np.array([_AWKWARD, _AWKWARD[::-1], [v * 3 for v in _AWKWARD]])
    traj = Trajectory(times=np.array([0.0, 1 / 3, 2.0]), states=states, scheme="rk4", dt=0.1)
    expected = _reference_csv(
        tmp_path / "ref.csv", ["t"] + [f"node_{i}" for i in range(len(_AWKWARD))],
        ([repr(float(t))] + [repr(float(v)) for v in row]
         for t, row in zip(traj.times, traj.states)))
    assert _write_trajectory(traj, tmp_path, "traj.csv").read_bytes() == expected


@pytest.mark.parametrize("embedded", [True, False])
def test_profile_csv_bytes_match_per_value_repr(tmp_path, embedded):
    n = len(_AWKWARD)
    space = (build_interval(-1.0, 2.0, n) if embedded
             else build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)], np.ones(n)))
    vec = np.array(_AWKWARD)
    xs = space.x if embedded else np.arange(n, dtype=float)
    expected = _reference_csv(tmp_path / "ref.csv", ["node", "x", "value"],
                              ([i, repr(float(x)), repr(float(v))]
                               for i, (x, v) in enumerate(zip(xs, vec))))
    assert _write_profile(vec, space, tmp_path, "prof.csv").read_bytes() == expected


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=12),
       st.integers(1, 3), st.booleans())
@settings(derandomize=True, deadline=None, max_examples=100)
def test_csv_bytes_match_csv_writer_on_any_floats(tmp_path_factory, values, rows, embedded):
    tmp_path = tmp_path_factory.mktemp("csv")
    n = len(values)
    vec = np.array(values)
    space = (build_interval(-1.0, 2.0, n) if embedded
             else build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)], np.ones(n)))
    xs = space.x if embedded else np.arange(n, dtype=float)
    expected = _reference_csv(tmp_path / "ref.csv", ["node", "x", "value"],
                              ([i, repr(float(x)), repr(float(v))]
                               for i, (x, v) in enumerate(zip(xs, vec))))
    assert _write_profile(vec, space, tmp_path, "prof.csv").read_bytes() == expected
    states = np.array([np.roll(vec, j) for j in range(rows)])
    traj = Trajectory(times=np.arange(rows) / 3.0, states=states, scheme="rk4", dt=0.1)
    expected = _reference_csv(
        tmp_path / "ref.csv", ["t"] + [f"node_{i}" for i in range(n)],
        ([repr(float(t))] + [repr(float(v)) for v in row]
         for t, row in zip(traj.times, traj.states)))
    assert _write_trajectory(traj, tmp_path, "traj.csv").read_bytes() == expected


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["--out", str(tmp_path), "spectrum", "--config", str(bad)])
    assert rc == 2
    assert "line" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, nonlocalrd.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert res.stdout.strip() == "False"
