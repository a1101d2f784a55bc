import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructal import dynamics
from constructal import hierarchy as hm
from constructal.cli import _load, main
from constructal.config import (
    KEYS,
    RunConfig,
    build_run_config,
    format_value,
    load_config,
    parse_config_text,
    write_config,
)
from constructal.dynamics import IntegrationOptions, ProjectedGradient, SignDescent
from constructal.errors import ConfigError

REPO = Path(__file__).resolve().parents[1]
CANONICAL = REPO / "configs" / "canonical.cfg"
BRANCHING = REPO / "configs" / "branching.cfg"


def canonical_data(**overrides):
    data = {
        "costs.K": [1.0, 0.5, 0.25, 0.125],
        "assembly.A1": 1.0,
        "assembly.kappa": [1.0, 1.0],
        "mode.kind": "projected_gradient",
        "mode.mobility": 1.0,
        "run.h": 1e-3,
        "run.t_end": 1.0,
        "run.x0": [1.3, 0.8, 0.3, 12.0, 20.0],
        "run.seed": 0,
    }
    data.update(overrides)
    return {k: v for k, v in data.items() if v is not None}


class TestParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(canonical_data(), path)
        rc = load_config(path)
        assert rc.costs.K == (1.0, 0.5, 0.25, 0.125)
        assert isinstance(rc.mode, ProjectedGradient)
        assert rc.h == 1e-3 and rc.t_end == 1.0

    def test_comments_and_blanks(self):
        data = parse_config_text("# hello\n\ncosts.K = [1.0, 0.5]\nrun.seed = 3\n")
        assert data["costs.K"] == [1.0, 0.5]
        assert data["run.seed"] == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("costs.J = [1.0, 0.5]")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("run.seed = 1\nrun.seed = 2")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("costs.K [1.0, 0.5]")

    def test_readme_lists_every_key(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Configuration format", 1)[1].split("```text", 1)[1].split("```", 1)[0]
        keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
        assert sorted(keys) == sorted(KEYS)


class TestValidation:
    def test_nonmonotone_ladder(self):
        with pytest.raises(ConfigError):
            build_run_config(canonical_data(**{"costs.K": [1.0, 0.5, 0.6, 0.125]}))

    def test_nonpositive_tolerance(self):
        with pytest.raises(ConfigError, match="tol.event"):
            build_run_config(canonical_data(**{"tol.event": 0.0}))

    def test_nonpositive_t_end(self):
        with pytest.raises(ConfigError, match="t_end"):
            build_run_config(canonical_data(**{"run.t_end": 0.0}))

    def test_x0_outside_box(self):
        with pytest.raises(ConfigError, match="run.x0"):
            build_run_config(canonical_data(**{"run.x0": [9.0, 0.8, 0.3, 12.0, 20.0]}))

    def test_x0_wrong_dimension(self):
        with pytest.raises(ConfigError, match="run.x0"):
            build_run_config(canonical_data(**{"run.x0": [1.0, 0.8, 0.3]}))

    def test_sign_descent_gain_lengths(self):
        data = canonical_data(
            **{"mode.kind": "sign_descent", "mode.eta": [1.0, 1.0], "mode.zeta": [1.0, 1.0]}
        )
        with pytest.raises(ConfigError):
            build_run_config(data)

    def test_zero_sampling_count(self):
        with pytest.raises(ConfigError, match="sampling.count"):
            build_run_config(canonical_data(**{"sampling.count": 0}))

    def test_sampling_count_past_sobol_period(self):
        # the bound is SAMPLE_LIMIT = 10**7 (about 30 s of certificate), far
        # below the 2**30 at which the sampler would lose precision
        build_run_config(canonical_data(**{"sampling.count": 10**7}))
        with pytest.raises(ConfigError, match="sampling.count"):
            build_run_config(canonical_data(**{"sampling.count": 10**7 + 1}))

    def test_subbox_needs_both_bounds(self):
        with pytest.raises(ConfigError, match="subbox"):
            build_run_config(canonical_data(**{"sampling.subbox_lo": [1, 1, 1, 2, 2]}))

    def test_alpha_beta_must_pair(self):
        with pytest.raises(ConfigError, match="alpha"):
            build_run_config(canonical_data(**{"assembly.alpha": [0.3, 0.5, 0.5]}))

    def test_defaults_are_those_of_the_owning_classes(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("costs.K = [1.0, 0.5, 0.25, 0.125]\n", encoding="utf-8")
        rc = load_config(path)
        assert rc.options == IntegrationOptions()
        assert rc.mode == ProjectedGradient()
        assert (rc.cfg.r_lo, rc.cfg.r_hi, rc.cfg.n_hi) == (0.05, 4.0, 64.0)
        path.write_text("costs.K = [1.0, 0.5, 0.25, 0.125]\nmode.kind = sign_descent\n", encoding="utf-8")
        assert load_config(path).mode == SignDescent()

    def test_sign_descent_built(self):
        rc = build_run_config(
            canonical_data(**{"mode.kind": "sign_descent", "mode.sliding": "equivalent_control"})
        )
        assert isinstance(rc.mode, SignDescent)
        assert rc.mode.sliding == "equivalent_control"


class TestCliTable:
    def test_canonical_passes(self, capsys):
        assert main(["table", "--config", str(CANONICAL)]) == 0
        out = capsys.readouterr().out
        assert "max_deviation" in out
        assert out.count("\n") >= 5

    def test_single_level_has_no_branching_columns(self, tmp_path, capsys):
        path = tmp_path / "p1.cfg"
        write_config(
            {
                "costs.K": [1.0, 0.5],
                "run.t_end": 1.0,
                "run.x0": [2.0],
            },
            path,
        )
        assert main(["table", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "n_opt" not in out

    def test_explicit_bejan_prefactors_reproduce_the_default(self, tmp_path, capsys):
        default = tmp_path / "default.cfg"
        write_config(canonical_data(), default)
        assert main(["table", "--config", str(default)]) == 0
        want = capsys.readouterr().out
        alpha, beta = hm.bejan_prefactors(hm.TransportCosts(K=(1.0, 0.5, 0.25, 0.125)))
        explicit = tmp_path / "explicit.cfg"
        write_config(canonical_data(**{"assembly.alpha": list(alpha), "assembly.beta": list(beta)}), explicit)
        assert main(["table", "--config", str(explicit)]) == 0
        assert capsys.readouterr().out == want

    def test_non_bejan_prefactors_move_the_optimum(self, tmp_path, capsys):
        # r_opt,i = sqrt(beta_i / alpha_i) sqrt(K_i / K_(i-1))
        alpha, beta = [0.3, 0.6, 0.4], [0.5, 0.5, 0.7]
        path = tmp_path / "prefactors.cfg"
        write_config(canonical_data(**{"assembly.alpha": alpha, "assembly.beta": beta}), path)
        assert main(["table", "--config", str(path)]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:4]]
        want = np.sqrt(np.divide(beta, alpha) * 0.5)
        assert [float(row[1]) for row in rows] == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx([0.91287, 0.64550, 0.93541], abs=1e-5)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("costs.K = [1.0, 2.0]\n")
        assert main(["table", "--config", str(path)]) == 2

    def test_missing_file_exits_2(self):
        assert main(["table", "--config", "/nonexistent/x.cfg"]) == 2

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"box.r_lo": 2.0, "box.r_hi": 2.0}, "need 0 < r_lo < r_hi"),
            ({"box.n_hi": 1.0}, "need n_hi > 1"),
            ({"assembly.kappa": [1.0]}, "kappa must have one entry per assembly level (p-1)"),
            ({"assembly.alpha": [0.3, 0.5, 0.5], "assembly.beta": [0.5, 0.5]}, "alpha and beta must have equal length"),
            ({"assembly.alpha": [0.3, 0.5, 0.5], "assembly.beta": [0.5, -0.5, 0.5]}, "prefactors must be positive"),
            ({"sampling.subbox_lo": [1.2, 0.8, 0.3, 12.0, 20.0], "sampling.subbox_hi": [1.0, 0.8, 0.3, 12.0, 20.0]},
             "sampling sub-box needs lo <= hi componentwise"),
        ],
        ids=["r_lo=r_hi", "n_hi=1", "kappa=short", "alpha_beta=unequal", "beta=negative", "subbox=reversed"],
    )
    def test_inconsistent_config_exits_2_with_its_reason(self, tmp_path, capsys, overrides, message):
        path = tmp_path / "bad.cfg"
        write_config(canonical_data(**overrides), path)
        assert main(["table", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestCliSimulate:
    def test_writes_outputs_and_summary(self, tmp_path, capsys):
        cfgp = tmp_path / "run.cfg"
        write_config(canonical_data(**{"run.t_end": 2.0}), cfgp)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 0
        csv = (out / "trajectory.csv").read_text().splitlines()
        assert csv[0] == "t,r_1,r_2,r_3,n_2,n_3,R,Psi,regime_mask,event"
        assert len(csv) == 2 + 2000
        summary = (out / "summary.txt").read_text()
        assert "schema_version = 1" in summary
        assert "dissipation_violations = 0" in summary
        assert "resistance_functional = decoupled_surrogate" in summary

    def test_requires_t_end(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        write_config(canonical_data(**{"run.t_end": None}), cfgp)
        assert main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2

    def test_sign_descent_logs_slide_events(self, tmp_path):
        cfgp = tmp_path / "sd.cfg"
        write_config(
            canonical_data(
                **{
                    "mode.kind": "sign_descent",
                    "mode.sliding": "equivalent_control",
                    "run.t_end": 6.0,
                }
            ),
            cfgp,
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "events.SlideEnter = 5" in summary

    def test_ill_conditioned_sliding_block_exits_1(self, tmp_path, capsys, monkeypatch):
        # a condition bound below 1 rejects the first sliding block the run meets
        monkeypatch.setattr(dynamics, "_COND_MAX", 0.5)
        cfgp = REPO / "configs" / "equivalent_control.cfg"
        assert main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: integration failed at t=0.2: sliding block on coordinates [2] is ill-conditioned\n"

    def test_sliding_failure_inside_a_step_exits_1_with_its_time(self, tmp_path, capsys, third_projection_fails):
        cfgp = REPO / "configs" / "equivalent_control.cfg"
        assert main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: integration failed at t=0.3: sliding block on coordinates [2] is singular\n"

    def test_too_many_levels_exit_2_without_output(self, tmp_path, capsys):
        cfgp = tmp_path / "deep.cfg"
        K = [0.9**i for i in range(35)]
        write_config(canonical_data(**{"costs.K": K, "assembly.kappa": None, "run.x0": None}), cfgp)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 2
        assert "config error: at most 32 levels" in capsys.readouterr().err
        assert not out.exists()

    def test_validation_failure_leaves_no_partial_output(self, tmp_path):
        cfgp = tmp_path / "bad.cfg"
        write_config(canonical_data(**{"run.t_end": -1.0}), cfgp)
        out = tmp_path / "fresh"
        assert main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 2
        assert not out.exists()

    def test_assembly_gamma_is_an_unknown_key(self, tmp_path, capsys):
        # the areal generation rate scaled only the flows, which no output reads
        cfgp = tmp_path / "gamma.cfg"
        write_config(canonical_data(**{"assembly.gamma": 1.0}), cfgp)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 2
        assert "unknown key" in capsys.readouterr().err
        assert not out.exists()


class TestCliCertify:
    def test_branching_certificate(self, tmp_path):
        out = tmp_path / "out"
        assert main(["certify", "--config", str(BRANCHING), "--out", str(out)]) == 0
        cert = (out / "certificate.txt").read_text()
        assert "overall_pass = true" in cert
        assert "nu_estimate = 1.0" in cert

    def test_coupled_certificate_fails_exit_1(self, tmp_path):
        cfgp = tmp_path / "coupled.cfg"
        write_config(
            canonical_data(**{"mode.gradient": "coupled", "sampling.count": 512, "run.t_end": 2.0}),
            cfgp,
        )
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfgp), "--out", str(out)]) == 1
        cert = (out / "certificate.txt").read_text()
        assert "contraction_pass = false" in cert
        assert "witness_0 = [" in cert

    def test_sign_descent_rejected(self, tmp_path):
        cfgp = tmp_path / "sd.cfg"
        write_config(canonical_data(**{"mode.kind": "sign_descent", "run.t_end": 1.0}), cfgp)
        assert main(["certify", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            # one past the sample bound, and far past it; rejected at load,
            # so nothing is allocated
            pytest.param({"sampling.count": 10000001}, id="count=10**7+1"),
            pytest.param({"sampling.count": 1073741825}, id="count=2**30+1"),
        ],
    )
    def test_bad_count_exits_2_before_any_output(self, tmp_path, capsys, overrides):
        cfgp = tmp_path / "run.cfg"
        write_config(canonical_data(**overrides), cfgp)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfgp), "--out", str(out)]) == 2
        assert "config error: sampling.count" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["certify", "--config", str(BRANCHING), "--out", str(out), "--seed", "-1"]) == 2
        assert "run.seed" in capsys.readouterr().err
        assert not out.exists()


class TestCliConverge:
    def test_identical_pair_degenerate_exit_0(self, tmp_path):
        cfgp = tmp_path / "same.cfg"
        x = [1.3, 0.8, 0.3, 12.0, 20.0]
        write_config(canonical_data(**{"run.x1": x, "run.t_end": 1.0}), cfgp)
        out = tmp_path / "out"
        assert main(["converge", "--config", str(cfgp), "--out", str(out)]) == 0
        report = (out / "convergence.txt").read_text()
        assert "degenerate = true" in report

    def test_branching_pair_rate(self, tmp_path):
        out = tmp_path / "out"
        assert main(["converge", "--config", str(BRANCHING), "--out", str(out)]) == 0
        report = dict(
            line.split(" = ") for line in (out / "convergence.txt").read_text().splitlines()
        )
        assert abs(float(report["rate"]) - 1.0) <= 1e-3
        assert float(report["prefactor"]) >= 1.0
        assert float(report["r_squared"]) >= 0.999


class TestCliFromOptimum:
    @pytest.mark.parametrize("command, report", [("simulate", "summary.txt"), ("certify", "certificate.txt")])
    def test_run_that_starts_converged_passes(self, tmp_path, command, report):
        # the run stops converged after one step, with 2 of its 1001 grid rows
        cfgp = tmp_path / "xstar.cfg"
        write_config(canonical_data(**{"run.x0": [1.0, 0.5, 0.5, 8.0, 16.0], "sampling.count": 512}), cfgp)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfgp), "--out", str(out)]) == 0
        text = (out / report).read_text()
        assert "dissipation_violations = 0" in text
        assert "R_gap = 0.0" in text


class TestCliErrorMapping:
    def test_integration_failure_exits_1(self, tmp_path, monkeypatch):
        from constructal import cli
        from constructal.errors import StepFailureError

        def boom(*args, **kwargs):
            raise StepFailureError("chattering detected", time=0.5)

        monkeypatch.setattr(cli, "integrate", boom)
        cfgp = tmp_path / "run.cfg"
        write_config(canonical_data(), cfgp)
        assert main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 1


class TestSingleLevel:
    def test_integrates_to_scalar_optimum(self):
        from constructal import (
            ProjectedGradient,
            TransportCosts,
            integrate,
            optimum_state,
            state_box,
        )
        from constructal.hierarchy import AssemblyConfig

        costs = TransportCosts(K=(1.0, 0.5))
        cfg = AssemblyConfig.bejan(costs)
        box = state_box(costs, cfg)
        traj = integrate(ProjectedGradient(), costs, cfg, box, np.array([2.5]), 40.0, 1e-3)
        assert traj.converged
        assert traj.final_state[0] == pytest.approx(optimum_state(costs, cfg).r[0], abs=1e-5)


class TestSeedGeneratedStates:
    def test_states_in_box_and_seed_dependent(self, tmp_path):
        from constructal.cli import _initial_state

        cfgp = tmp_path / "run.cfg"
        write_config(canonical_data(**{"run.x0": None, "run.t_end": 1.0}), cfgp)
        rc = load_config(cfgp)
        a = _initial_state(rc, "x0")
        b = _initial_state(rc, "x1")
        assert rc.box.contains(a) and rc.box.contains(b)
        assert not np.allclose(a, b)
        rc.seed = 99
        c = _initial_state(rc, "x0")
        assert not np.allclose(a, c)


class TestDeterminism:
    def test_simulate_byte_identical(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        write_config(canonical_data(**{"run.t_end": 1.5}), cfgp)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfgp), "--out", str(out1), "--seed", "7"]) == 0
        assert main(["simulate", "--config", str(cfgp), "--out", str(out2), "--seed", "7"]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()


NAN = float("nan")
INF = float("inf")


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"run.t_end": INF}, id="t_end=inf"),
            pytest.param({"run.h": INF}, id="h=inf"),
            pytest.param({"run.h": NAN}, id="h=nan"),
            pytest.param({"run.h": "fast"}, id="h=word"),
            pytest.param({"run.h": 10**400}, id="h=huge_int"),
            pytest.param({"assembly.A1": NAN}, id="A1=nan"),
            pytest.param({"assembly.kappa": [NAN, 1.0]}, id="kappa=nan"),
            pytest.param({"costs.K": [INF, 0.5, 0.25, 0.125]}, id="K=inf"),
            pytest.param({"mode.mobility": NAN}, id="mobility=nan"),
            pytest.param({"mode.mobility": [1.0, 1.0, NAN, 1.0, 1.0]}, id="mobility_list=nan"),
            pytest.param({"tol.converge": INF}, id="tol=inf"),
            pytest.param(
                {"mode.kind": "sign_descent", "mode.eta": [1.0, INF, 1.0]}, id="eta=inf"
            ),
            pytest.param({"assembly.kappa": 1.0}, id="kappa=scalar"),
            pytest.param({"assembly.alpha": 0.5, "assembly.beta": 0.5}, id="alpha_beta=scalar"),
            pytest.param({"costs.K": 1.0}, id="K=scalar"),
            pytest.param({"run.x0": 1.3}, id="x0=scalar"),
            pytest.param({"run.x1": "far"}, id="x1=word"),
            pytest.param({"mode.kind": "sign_descent", "mode.eta": "fast"}, id="eta=word"),
            pytest.param({"mode.kind": "sign_descent", "mode.zeta": "slow"}, id="zeta=word"),
            pytest.param({"run.seed": True}, id="seed=true"),
            pytest.param({"run.h": True}, id="h=true"),
            pytest.param({"sampling.count": True}, id="count=true"),
            pytest.param({"tol.switch": True}, id="tol=true"),
            pytest.param({"mode.kind": "sign_descent", "mode.epsilon": True}, id="epsilon=true"),
            pytest.param({"mode.mobility": [1.0, 1.0]}, id="mobility_list=short"),
            # grids too large to allocate, and one too short for the dissipation audit
            pytest.param({"run.t_end": 1e15}, id="grid=1e18_rows"),
            pytest.param({"run.h": 1e-300}, id="grid=overflow"),
            pytest.param({"run.t_end": 0.004}, id="grid=5_rows"),
        ],
    )
    def test_simulate_exits_2_before_any_output(self, tmp_path, capsys, overrides):
        cfgp = tmp_path / "run.cfg"
        write_config(canonical_data(**overrides), cfgp)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()


WORDS = ["true", "false", "nan", "-inf", "1e999", "0x10", "[", "]", "[]", "[1.0,]", "[1.0, x]", "",
         "projected_gradient", "sign_descent", "equivalent_control", "boundary_layer", "coupled"]
RAW_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(min_value=-(10**20), max_value=10**20).map(str),
    st.sampled_from(["1e-300", "5e-324", "1e300", "1e15", "1e-12", "0.004", str(2**30), str(10**400)]),
)
RAW_VALUES = st.one_of(
    RAW_NUMBERS,
    st.sampled_from(WORDS),
    st.lists(RAW_NUMBERS, max_size=7).map(lambda xs: "[" + ", ".join(xs) + "]"),
    st.text(max_size=12),
)


JUNK_LINES = st.one_of(
    st.sampled_from(["# note", "", "   ", "costs.K", "= 1.0", "unknown.key = 1", "run.h = 1e-3 # note"]),
    st.text(max_size=20),
)


@st.composite
def config_texts(draw):
    """The canonical config with some values replaced by arbitrary text,
    the grid often by arbitrary numbers, some keys dropped and a junk line
    added, in any order."""
    data = {k: format_value(v) for k, v in canonical_data(**{"run.t_end": 30.0}).items()}
    for key in draw(st.lists(st.sampled_from(sorted(KEYS)), max_size=4)):
        data[key] = draw(RAW_VALUES)
    for key in ("run.h", "run.t_end"):
        if draw(st.booleans()):
            data[key] = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr))
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=2)):
        data.pop(key, None)
    lines = [f"{k} = {v}" for k, v in data.items()] + draw(st.lists(JUNK_LINES, max_size=1))
    return "\n".join(draw(st.permutations(lines)))


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=config_texts())
    def test_loader_returns_a_config_or_raises_config_error(self, tmp_path_factory, text):
        # loading only: nothing here integrates
        path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        for command in ("table", "simulate", "certify", "converge"):
            try:
                rc = _load(argparse.Namespace(config=path, seed=None, command=command))
            except ConfigError:
                continue
            assert isinstance(rc, RunConfig)


SHIPPED = sorted(p.stem for p in (REPO / "configs").glob("*.cfg"))


@st.composite
def box_states(draw, d: int):
    """A state in the shipped box, [0.05, 4] on the ratios and [1, 64] on
    the branching numbers: mostly interior, now and then on a face or just
    past the upper one."""
    p = (d + 1) // 2
    bounds = [(0.05, 4.0)] * p + [(1.0, 64.0)] * (p - 1)
    return [draw(st.one_of(st.floats(lo, hi), st.floats(lo, hi), st.floats(lo, hi),
                           st.sampled_from([lo, hi, 1.01 * hi]))) for lo, hi in bounds]


@st.composite
def cli_runs(draw):
    """A subcommand on a shipped config with a short horizon and a small
    sample count, some values redrawn from ranges that reach past their
    bounds."""
    name = draw(st.sampled_from(SHIPPED))
    data = parse_config_text((REPO / "configs" / f"{name}.cfg").read_text(encoding="utf-8"))
    data["run.t_end"] = draw(st.sampled_from([0.005, 0.05, 0.3, 1.0]))
    data["run.h"] = draw(st.sampled_from([1e-3, 4e-3, 4e-3, 0.02]))
    data["sampling.count"] = draw(st.integers(min_value=1, max_value=64))
    for key in ("run.x0", "run.x1"):
        if draw(st.booleans()):
            data[key] = draw(box_states(len(data["run.x0"])))
    if draw(st.booleans()):
        data["sampling.rel_halfwidth"] = draw(st.floats(min_value=1e-6, max_value=20.0))
    if draw(st.booleans()):
        data["mode.gradient"] = "coupled"
    if data["mode.kind"] == "sign_descent" and draw(st.booleans()):
        data["mode.epsilon"] = draw(st.floats(min_value=1e-9, max_value=1.0))
    command = draw(st.sampled_from(["table", "simulate", "certify", "converge"]))
    return command, data


class TestCliFuzz:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(run=cli_runs())
    def test_runs_keep_the_exit_contract(self, tmp_path_factory, run):
        command, data = run
        base = tmp_path_factory.mktemp("cli")
        write_config(data, base / "run.cfg")
        out = base / "out"
        code = main([command, "--config", str(base / "run.cfg"), "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()
        for report in out.glob("*") if out.exists() else ():
            # alpha_hat = inf is the documented value when no interval qualifies
            assert not re.search(r"\bnan\b", report.read_text(encoding="utf-8"), re.IGNORECASE), report.name


class TestImportCost:
    @staticmethod
    def modules_after(code: str, package: str) -> str:
        """The modules of package loaded in a fresh interpreter that ran code."""
        code += f"; print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))"
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        return done.stdout.strip().splitlines()[-1]

    def test_cli_import_loads_no_scipy(self):
        # scipy.stats alone takes most of a second to import; nothing in the
        # program imports scipy
        assert self.modules_after("import sys, constructal.cli", "scipy") == "[]"

    def test_config_import_loads_no_analysis(self):
        # loading a config (set-up, the ensemble operation) needs none of
        # the certificate and report code
        loaded = self.modules_after("import sys, constructal.config", "constructal")
        assert "'constructal.config'" in loaded and "'constructal.analysis'" not in loaded

    def test_certify_and_converge_load_no_scipy(self, tmp_path):
        # the certificate's sampler is a closed form in NumPy
        runs = [("certify", CANONICAL), ("converge", BRANCHING)]
        code = "import sys; from constructal.cli import main; " + "; ".join(
            f"assert main([{cmd!r}, '--config', {str(cfg)!r}, '--out', {str(tmp_path / cmd)!r}]) == 0"
            for cmd, cfg in runs
        )
        assert self.modules_after(code, "scipy") == "[]"
        assert "generator = kronecker-shifted" in (tmp_path / "certify" / "certificate.txt").read_text()
        assert "nu_estimate = " in (tmp_path / "converge" / "convergence.txt").read_text()

    def test_equivalent_control_simulate_loads_no_masked_arrays(self, tmp_path):
        # numpy.ma takes about 15 ms to import; the grouped sliding solves
        # avoid the plain np.unique, which loads it
        code = ("import sys; from constructal.cli import main; "
                f"assert main(['simulate', '--config', {str(REPO / 'configs' / 'equivalent_control.cfg')!r}, "
                f"'--out', {str(tmp_path / 'out')!r}]) == 0")
        assert self.modules_after(code, "numpy.ma") == "[]"
        assert "events.SlideEnter" in (tmp_path / "out" / "summary.txt").read_text()
