"""Config parsing/validation and the in-process command-line interface."""

import json
import math
import re
from contextlib import nullcontext
from pathlib import Path

import pytest

from plrds import analysis
from plrds.cli import main
from plrds.config import (_SCHEMA, EXPERIMENTS, MAX_AUDIT_FLOATS,
                          ConfigError, RunConfig, _float, _float_list,
                          _str_list, parse_config)
from plrds.fields import Grid, p_laplace, zero_field
from plrds.integrator import StepperConfig, pullback_run
from plrds.noise import QUAD_TOL, EtaConfig
from plrds.problem import NonlinearitySpec, ProblemSpec, alpha_zero

CFG = StepperConfig()
U0 = zero_field(Grid(1, 8.0, 17))


def errors_of(text: str) -> list:
    """The errors of a config text the parser must reject."""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    return err.value.errors


def base_config(out_dir, **overrides) -> str:
    """A fast smoke configuration writing into out_dir."""
    values = {
        "noise_case": "additive",
        "n": 65,
        "dt": 0.002,
        "horizon": 1,
        "warmup": 0.5,
        "n_seeds": 2,
        "n_initials": 1,
        "n_sigma": 2,
        "k_list": "2,3",
        "horizons": "1,2",
        "alphas": "0.1,0.05",
        "formats": "csv,json,binary",
        "alpha": 0.0625,
    }
    values.update(overrides)
    return f"""
[problem]
noise_case = {values['noise_case']}
alpha = {values['alpha']}
[grid]
n = {values['n']}
[stepper]
dt = {values['dt']}
[experiment]
horizon = {values['horizon']}
warmup = {values['warmup']}
n_seeds = {values['n_seeds']}
n_initials = {values['n_initials']}
n_sigma = {values['n_sigma']}
k_list = {values['k_list']}
horizons = {values['horizons']}
alphas = {values['alphas']}
[output]
directory = {out_dir}
formats = {values['formats']}
"""


class TestParseConfig:
    def test_empty_text_yields_defaults(self):
        cfg = parse_config("")
        assert cfg.p == 3.0 and cfg.q == 4.0
        assert cfg.lam == 1.0 and cfg.alpha == 0.0625
        assert cfg.n == 257 and cfg.half_width == 8.0
        assert cfg.dt == 1e-3 and cfg.substep_limit == 8
        assert cfg.experiment == "simulate"
        assert cfg.formats == ("csv", "json")

    def test_values_and_grid_alias(self):
        cfg = parse_config("[grid]\nl = 6\nn = 65\n[problem]\np = 2.5\n")
        assert cfg.half_width == 6.0 and cfg.n == 65 and cfg.p == 2.5

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# comment\n; other\n\n[problem]\nq = 6 \n")
        assert cfg.q == 6.0

    def test_duplicate_key_reports_both_lines(self):
        msg = "\n".join(errors_of("[stepper]\ndt = 0.001\ndt = 0.002\n"))
        assert "duplicate key 'dt'" in msg
        assert "lines 2 and 3" in msg
        # [grid] l is half_width under another name.
        assert errors_of("[grid]\nl = 6\nhalf_width = 7\n") == [
            "line 3: duplicate key 'half_width' in section [grid] "
            "(lines 2 and 3)"]

    def test_unknown_key_and_section(self):
        errors = errors_of("[stepper]\ncourant = 0.5\n[fluxes]\nx = 1\n")
        assert any("line 2: unknown key 'courant'" in e for e in errors)
        assert any("line 3: unknown section [fluxes]" in e for e in errors)
        # keys inside an unknown section are not re-reported
        assert not any("line 4" in e for e in errors)

    def test_key_before_section(self):
        errors = errors_of("dt = 0.001\n")
        assert any("line 1" in e and "before any [section]" in e
                   for e in errors)

    def test_invalid_value_carries_line(self):
        errors = errors_of("[stepper]\ndt = fast\n")
        assert any(e.startswith("line 2: invalid value for 'dt'")
                   for e in errors)

    def test_cross_field_q_ge_p(self):
        errors = errors_of("[problem]\np = 4\nq = 3\n")
        assert any("line 3" in e and "q must be ≥ p" in e for e in errors)

    def test_experiment_name_key_is_unknown(self):
        # The subcommand names the experiment; a config cannot.
        errors = errors_of("[experiment]\nname = simulate\n")
        assert errors == ["line 2: unknown key 'name' in section [experiment]"]

    def test_horizons_must_ascend(self):
        errors = errors_of("[experiment]\nhorizons = 8,4\n")
        assert any("horizons must be ascending" in e for e in errors)

    def test_bad_output_format(self):
        errors = errors_of("[output]\nformats = csv,parquet\n")
        assert any("unknown output formats: parquet" in e for e in errors)

    def test_errors_sorted_by_line(self):
        text = ("[problem]\n"
                "p = 1\n"          # line 2: p must be >= 2
                "[stepper]\n"
                "dt = nope\n"      # line 4: invalid value
                "[output]\n"
                "formats = tsv\n")  # line 6: unknown format
        errors = errors_of(text)
        nums = [int(e.split()[1].rstrip(":")) for e in errors
                if e.startswith("line ")]
        assert nums == sorted(nums) and len(nums) >= 3

    def test_defaults_are_the_dataclasses(self):
        # The empty config builds the library's default objects.
        cfg = RunConfig()
        assert cfg.problem_spec() == ProblemSpec()
        assert cfg.stepper() == StepperConfig()
        assert cfg.grid() == Grid()
        assert cfg.quad_tol == QUAD_TOL

    def test_valid_config_parses(self):
        assert parse_config("[problem]\nq = 5\n").q == 5.0

    def test_builders(self):
        cfg = parse_config("[problem]\nnoise_case = multiplicative\n"
                           "alpha = 0.1\n[grid]\nn = 65\n")
        spec = cfg.problem_spec()
        assert spec.noise_case == "multiplicative" and spec.alpha == 0.1
        assert cfg.grid().n == 65
        assert cfg.stepper().dt == cfg.dt
        assert cfg.path_dt() == cfg.dt
        cfg.noise_dt = 0.25
        assert cfg.path_dt() == 0.25
        d = cfg.as_dict()
        assert d["n"] == 65 and isinstance(d["horizons"], list)


# Every (section, key) with the RunConfig attribute it sets and its parser,
# written out by hand.  The schema derives the parsers from the types of the
# RunConfig defaults, so a default whose type changes shows up here.
SCHEMA = {
    "problem": {"lam": ("lam", _float), "p": ("p", _float),
                "q": ("q", _float), "alpha": ("alpha", _float),
                "epsilon": ("epsilon", _float),
                "noise_case": ("noise_case", str),
                "g_amp": ("g_amp", _float), "period": ("period", _float),
                "delta": ("delta", _float), "gamma": ("gamma", _float),
                "phi_amp": ("phi_amp", _float), "f_kind": ("f_kind", str),
                "f_expression": ("f_expression", str)},
    "grid": {"dim": ("dim", int), "l": ("half_width", _float),
             "n": ("n", int), "half_width": ("half_width", _float)},
    "stepper": {"dt": ("dt", _float),
                "substep_limit": ("substep_limit", int)},
    "noise": {"seed": ("seed", int), "dt": ("noise_dt", _float),
              "block_length": ("block_length", _float),
              "eta_kind": ("eta_kind", str), "eta_mean": ("eta_mean", _float),
              "eta_rate": ("eta_rate", _float),
              "eta_seed": ("eta_seed", int)},
    "experiment": {"tau": ("tau", _float), "horizon": ("horizon", _float),
                   "horizons": ("horizons", _float_list),
                   "k_list": ("k_list", _float_list),
                   "alphas": ("alphas", _float_list),
                   "n_seeds": ("n_seeds", int),
                   "n_initials": ("n_initials", int), "c": ("c", _float),
                   "quad_tol": ("quad_tol", _float),
                   "cluster_tol": ("cluster_tol", _float),
                   "ball_radius": ("ball_radius", _float),
                   "sampler_seed": ("sampler_seed", int),
                   "warmup": ("warmup", _float), "workers": ("workers", int),
                   "n_sigma": ("n_sigma", int)},
    "output": {"directory": ("directory", str),
               "formats": ("formats", _str_list)},
}


class TestSchema:
    def test_derived_schema_matches_the_written_table(self):
        assert _SCHEMA == SCHEMA


class TestReadme:
    def test_every_ini_block_parses(self):
        # The parser has no inline comments, so a sample config must keep
        # each comment on a line of its own.
        text = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```ini\n(.*?)^```", text, re.M | re.S)
        assert blocks
        for block in blocks:
            parse_config(block)


class TestMainValidate:
    def test_validate_ok(self, tmp_path, capsys):
        p = tmp_path / "run.ini"
        p.write_text(base_config(tmp_path / "out"))
        assert main(["validate", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        assert "config OK" in out
        assert "[problem]" in out and "noise_case=additive" in out
        shown = {line.split("]")[0].strip(" ["): line
                 for line in out.splitlines()[1:]}
        assert set(shown) == set(SCHEMA)
        for section, keys in SCHEMA.items():
            for key in keys:
                assert f" {key}=" in shown[section], (section, key)

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[problem]\np = 4\nq = 3\nalpha = -1\n")
        assert main(["validate", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "config error: line 3: q must be ≥ p" in err
        assert "config error: line 4: alpha must be ≥ 0" in err
        assert not list(tmp_path.glob("out*"))

    def test_eta_kind_ou_exits_2(self, tmp_path, capsys):
        p = tmp_path / "ou.ini"
        p.write_text("[noise]\neta_kind = ou\neta_mean = 0.5\n")
        assert main(["validate", "--config", str(p)]) == 2
        assert ("config error: line 2: eta_kind must be constant or "
                "shifted-ou") in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.ini"
        assert main(["validate", "--config", str(missing)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_unknown_command_raises_system_exit(self, capsys):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "plrds" in capsys.readouterr().out


# Configs that used to pass `validate` and then fail at run time: each is
# (body, the line its error must name).
PROBES = {
    "custom-expression": ("[problem]\nf_kind = custom\nf_expression = s +\n",
                          3),
    "lam-nan": ("[problem]\nlam = nan\n", 2),
    "l-and-half_width": ("[grid]\nl = 6\nhalf_width = 7\n", 3),
    "gamma-nan": ("[problem]\ngamma = nan\n", 2),
    "tau-inf": ("[experiment]\ntau = inf\n", 2),
    "horizon-inf": ("[experiment]\nhorizon = inf\n", 2),
    "period-off-dt-grid": ("[stepper]\ndt = 0.001\n[problem]\n"
                           "period = 0.0015\n", 4),
    "tau-off-dt-grid": ("[stepper]\ndt = 0.001\n[experiment]\n"
                        "tau = 0.0005\n", 4),
    # The noise path's block and step rules.
    "block-off-dt-grid": ("[stepper]\ndt = 0.01\n[noise]\n"
                          "block_length = 4.005\n", 4),
    "dt-off-noise-dt-grid": ("[stepper]\ndt = 0.005\n[noise]\n"
                             "dt = 0.002\n", 2),
    "block-off-coarse-dt-grid": ("[stepper]\ndt = 0.2\n[noise]\n"
                                 "dt = 0.001\nblock_length = 2.5\n", 5),
}

# One case per rule a parameter dataclass states or a library call shares
# with the parser: a config whose last line breaks the rule, and a
# constructor or library call that breaks it the same way.
ONE_COPY = {
    "lam": ("[problem]\nlam = 0\n", lambda: ProblemSpec(lam=0.0)),
    "p": ("[problem]\np = 1.5\n", lambda: ProblemSpec(p=1.5)),
    "q": ("[problem]\nq = 2.5\n", lambda: ProblemSpec(q=2.5)),
    "alpha": ("[problem]\nalpha = -1\n", lambda: ProblemSpec(alpha=-1.0)),
    "epsilon": ("[problem]\nepsilon = -1\n",
                lambda: ProblemSpec(epsilon=-1.0)),
    "noise_case": ("[problem]\nnoise_case = levy\n",
                   lambda: ProblemSpec(noise_case="levy")),
    "period": ("[problem]\nperiod = 0\n", lambda: ProblemSpec(period=0.0)),
    "delta": ("[problem]\ndelta = -1\n", lambda: ProblemSpec(delta=-1.0)),
    "f_kind": ("[problem]\nf_kind = table\n",
               lambda: NonlinearitySpec(kind="table")),
    "gamma": ("[problem]\ngamma = 0\n", lambda: NonlinearitySpec(gamma=0.0)),
    "custom-needs-expression": ("[problem]\nf_kind = custom\n",
                                lambda: NonlinearitySpec(kind="custom")),
    "f_expression": ("[problem]\nf_kind = custom\nf_expression = s +\n",
                     lambda: NonlinearitySpec(kind="custom",
                                              expression="s +")),
    "dim": ("[grid]\ndim = 3\n", lambda: Grid(3, 8.0, 257)),
    "half_width": ("[grid]\nl = 0\n", lambda: Grid(1, 0.0, 257)),
    "n": ("[grid]\nn = 2\n", lambda: Grid(1, 8.0, 2)),
    "dt": ("[stepper]\ndt = 0\n", lambda: StepperConfig(dt=0.0)),
    "substep_limit": ("[stepper]\nsubstep_limit = -1\n",
                      lambda: StepperConfig(substep_limit=-1)),
    "eta_kind": ("[noise]\neta_kind = levy\n",
                 lambda: EtaConfig(kind="levy")),
    "eta_kind-ou": ("[noise]\neta_kind = ou\n",
                    lambda: EtaConfig(kind="ou")),
    "eta_rate": ("[noise]\neta_rate = 0\n", lambda: EtaConfig(rate=0.0)),
    "horizon": ("[experiment]\nhorizon = 0\n",
                lambda: analysis.estimate_attractor(0.0, ProblemSpec(), None,
                                                    horizon=0.0)),
    "horizons-nonnegative": ("[experiment]\nhorizons = -1, 2\n",
                             lambda: pullback_run(0.0, (-1.0, 2.0), [], None,
                                                  ProblemSpec(), CFG)),
    "horizons-ascending": ("[experiment]\nhorizons = 2, 1\n",
                           lambda: pullback_run(0.0, (2.0, 1.0), [], None,
                                                ProblemSpec(), CFG)),
    "k_list-ascending": ("[experiment]\nk_list = 3, 2\n",
                         lambda: analysis.tail_check(0.0, ProblemSpec(), [],
                                                     U0, k_list=(3.0, 2.0))),
    "k_list-positive": ("[experiment]\nk_list = 0, 2\n",
                        lambda: analysis.tail_check(0.0, ProblemSpec(), [],
                                                    U0, k_list=(0.0, 2.0))),
    "alphas-nonnegative": ("[experiment]\nalphas = 0.1, -0.05\n",
                           lambda: analysis.usc_sweep(0.0, ProblemSpec(), [],
                                                      alphas=(0.1, -0.05))),
    "alphas-decreasing": ("[experiment]\nalphas = 0.1, 0.2\n",
                          lambda: analysis.usc_sweep(0.0, ProblemSpec(), [],
                                                     alphas=(0.1, 0.2))),
    "p-p_laplace": ("[problem]\np = 1.5\n", lambda: p_laplace(U0, 1.5)),
    "delta-p_laplace": ("[problem]\ndelta = -1\n",
                        lambda: p_laplace(U0, 3.0, -1.0)),
    "lam-alpha_zero": ("[problem]\nlam = 0\n", lambda: alpha_zero(0.0, 0.0)),
    "ball_radius": ("[experiment]\nball_radius = 0\n",
                    lambda: analysis.sample_initial_ball(U0.grid, 0.0, 1)),
    "n_initials": ("[experiment]\nn_initials = 0\n",
                   lambda: analysis.sample_initial_ball(U0.grid, 1.0, 0)),
}


class TestParameterRules:
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_probe_exits_2_at_its_line(self, name, command, tmp_path, capsys):
        body, line = PROBES[name]
        p = tmp_path / "probe.ini"
        p.write_text(body + f"[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main([command, "--config", str(p)]) == 2
        assert f"config error: line {line}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [p]

    def test_substep_limit_zero_accepted(self):
        cfg = parse_config("[stepper]\nsubstep_limit = 0\n")
        assert cfg.stepper().substep_limit == 0

    @pytest.mark.parametrize("name", sorted(ONE_COPY))
    def test_constructor_and_config_share_message(self, name):
        text, build = ONE_COPY[name]
        last = text.count("\n")
        errors = [e for e in errors_of(text)
                  if e.startswith(f"line {last}: ")]
        assert len(errors) == 1, errors_of(text)
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == re.sub(r"^line \d+: ", "", errors[0])

    @pytest.mark.parametrize("build", [
        lambda: ProblemSpec(lam=float("nan")),
        lambda: NonlinearitySpec(gamma=float("nan")),
        lambda: StepperConfig(dt=float("nan"))], ids=["lam", "gamma", "dt"])
    def test_constructors_reject_nan(self, build):
        with pytest.raises(ValueError, match="must be > 0"):
            build()


# Inputs that reach a run through the command line, the environment, or the
# step-grid times of the chosen experiment: (argv after the config, env,
# config body, the error it must print).
OVERRIDE_PROBES = {
    "workers-flag": (["simulate", "--workers", "-3"], {}, "",
                     "workers must be ≥ 1"),
    "workers-env": (["simulate"], {"PLRDS_WORKERS": "0"}, "",
                    "workers must be ≥ 1"),
    "simulate-horizon": (["simulate"], {},
                         "[stepper]\ndt = 0.001\n[experiment]\n"
                         "horizon = 0.0015\n",
                         "line 4: horizon=0.0015 is not an integer multiple "
                         "of dt=0.001"),
    "absorb-horizons": (["absorb-check"], {},
                        "[stepper]\ndt = 0.001\n[experiment]\n"
                        "horizons = 0.5, 0.0015\n",
                        "line 4: horizons=0.0015 is not an integer multiple "
                        "of dt=0.001"),
    "energy-audit-warmup": (["energy-audit"], {},
                            "[stepper]\ndt = 0.001\n[experiment]\n"
                            "warmup = 0.0015\n",
                            "line 4: warmup=0.0015 is not an integer "
                            "multiple of dt=0.001"),
    "name-key": (["simulate"], {}, "[experiment]\nname = simulate\n",
                 "line 2: unknown key 'name' in section [experiment]"),
    # The step has one update rule; the key that chose another is gone.
    "scheme-key": (["simulate"], {}, "[stepper]\nscheme = imex\n",
                   "line 2: unknown key 'scheme' in section [stepper]"),
    "tail-check-horizon": (["tail-check"], {},
                           "[experiment]\nhorizon = 0.5\n",
                           "line 2: tail_check samples the last time unit; "
                           "horizon >= 1"),
    "energy-audit-one-step": (["energy-audit"], {},
                              "[stepper]\ndt = 0.01\n[experiment]\n"
                              "warmup = 0\nhorizon = 0.01\n",
                              "line 5: audit needs snapshots at three or "
                              "more consecutive nodes"),
    # 8,001 snapshots of 257^2 nodes: 4.2 GB of float64.
    "energy-audit-snapshot-bound": (["energy-audit"], {},
                                    "[grid]\ndim = 2\nn = 257\n"
                                    "[experiment]\nhorizon = 8\n",
                                    "line 5: audit snapshots would hold "
                                    "528,458,049 floats, over 67,108,864"),
}


class TestOverrides:
    @pytest.mark.parametrize("name", sorted(OVERRIDE_PROBES))
    def test_probe_exits_2_and_writes_nothing(self, name, tmp_path,
                                              monkeypatch, capsys):
        argv, env, body, message = OVERRIDE_PROBES[name]
        monkeypatch.delenv("PLRDS_WORKERS", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        p = tmp_path / "probe.ini"
        p.write_text(body + f"[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main([argv[0], "--config", str(p), *argv[1:]]) == 2
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [p]

    def test_only_the_experiments_own_times_are_checked(self):
        text = ("[stepper]\ndt = 0.001\n[experiment]\nhorizon = 0.0015\n"
                "warmup = 0.0015\n")
        # absorb-check never reads horizon or warmup; without an experiment
        # no experiment's times are checked.
        assert parse_config(text, experiment="absorb-check").horizon == 0.0015
        assert parse_config(text).warmup == 0.0015
        with pytest.raises(ConfigError) as err:
            parse_config(text, experiment="energy-audit")
        assert [e[:7] for e in err.value.errors] == ["line 4:", "line 5:"]

    def test_audit_snapshot_bound_is_inclusive(self):
        # 8,192 snapshots of 8,192 nodes is exactly the bound.
        text = ("[grid]\nn = {n}\n[stepper]\ndt = 0.5\n[experiment]\n"
                "horizon = 4095.5\n")
        assert MAX_AUDIT_FLOATS == 8192 * 8192
        assert parse_config(text.format(n=8192),
                            experiment="energy-audit").n == 8192
        with pytest.raises(ConfigError, match="floats, over 67,108,864"):
            parse_config(text.format(n=8193), experiment="energy-audit")
        assert parse_config(text.format(n=8193), experiment="simulate")

    def test_noise_keys_are_checked_where_a_path_is_built(self):
        text = ("[problem]\nnoise_case = deterministic\n[stepper]\n"
                "dt = 0.01\n[noise]\nblock_length = 4.005\n")
        # A noise-free simulate builds no path; absorb-check builds one per
        # seed whatever the noise case.
        assert parse_config(text, experiment="simulate").block_length == 4.005
        with pytest.raises(ConfigError) as err:
            parse_config(text, experiment="absorb-check")
        assert err.value.errors == ["line 6: block_length=4.005 is not an "
                                    "integer multiple of dt=0.01"]
        # Without an experiment no run, and so no path, is checked.
        assert parse_config("[noise]\ndt = 0.25\n").noise_dt == 0.25

    def test_overridden_attribute_drops_its_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[experiment]\nworkers = 2\n", workers=0)
        assert err.value.errors == ["workers must be ≥ 1"]
        assert parse_config("[experiment]\nworkers = 0\n",
                            workers=2).workers == 2


RUNNABLE = [e for e in EXPERIMENTS if e != "validate"]


class TestReportWriter:
    @pytest.mark.parametrize("formats", ["csv", "csv,json,binary"])
    @pytest.mark.parametrize("experiment", RUNNABLE)
    def test_manifest_lists_the_files_written(self, experiment, formats,
                                              tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out, n=33, dt=0.01, warmup=0.2,
                                 horizons="0.5,1", formats=formats))
        assert main([experiment, "--config", str(p), "--workers", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted(
            str(f) for f in out.iterdir() if f.name != "manifest.json")
        assert (out / "report.json").exists() == ("json" in formats)
        (task,) = manifest["tasks"]
        assert (task["task"], task["status"]) == (experiment, "done")
        if "json" in formats:
            report = json.loads((out / "report.json").read_text())
            assert report["seeds"] == manifest["seeds"]
            extra = set(report) - {"artifact_version", "config", "seeds"}
            assert extra and {k: task[k] for k in extra} == {
                k: report[k] for k in extra}

    def test_periodicity_one_absorbing_bound_per_seed_and_tau(
            self, tmp_path, monkeypatch):
        calls = []
        real = analysis.absorbing_bound

        def counting(tau, path, *args):
            calls.append((tau, path.seed))
            return real(tau, path, *args)

        monkeypatch.setattr(analysis, "absorbing_bound", counting)
        p = tmp_path / "run.ini"
        p.write_text(base_config(tmp_path / "out", n=33, dt=0.01))
        assert main(["periodicity-check", "--config", str(p)]) == 0
        assert sorted(calls) == [(0.0, 0), (0.0, 1), (1.0, 0), (1.0, 1)]


# Steps this coarse blow up from a large initial state.
STIFF = ("\n[stepper]\nsubstep_limit = 1\n"
         "[experiment]\nball_radius = 50\n")


class TestMainRuns:
    def test_simulate_artifacts(self, tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out))
        assert main(["simulate", "--config", str(p)]) == 0
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "t,l2_sq,grad_p,q_norm,z,eta"
        assert len(series) == 502  # header + 501 nodes at dt=2e-3 over 1 unit
        assert (out / "endpoint.csv").exists()
        assert (out / "endpoint.bin").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["seeds"] == [0]
        assert report["endpoint_l2_sq"] > 0.0
        assert report["config"]["experiment"] == "simulate"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "done"
        assert manifest["experiment"] == "simulate"
        assert any(o.endswith("series.csv") for o in manifest["outputs"])

    def test_simulate_deterministic_and_seed_override(self, tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out, noise_case="deterministic", alpha=0,
                                 formats="json"))
        assert main(["simulate", "--config", str(p), "--seed", "7"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seeds"] == [7]
        assert not (out / "endpoint.csv").exists()  # csv not requested

    def test_out_override(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(base_config(tmp_path / "ignored"))
        custom = tmp_path / "elsewhere"
        assert main(["simulate", "--config", str(p), "--out",
                     str(custom)]) == 0
        assert (custom / "series.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "run.ini"
        p.write_text(base_config(tmp_path / "ignored"))
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        assert main(["simulate", "--config", str(p), "--out",
                     str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert taken.read_text() == "keep me\n"
        assert sorted(tmp_path.iterdir()) == [p, taken]

    def test_cocycle_test_residual_zero(self, tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out))
        assert main(["cocycle-test", "--config", str(p)]) == 0
        lines = (out / "cocycle.csv").read_text().splitlines()
        assert lines == ["max_composition_residual", "0"]

    def test_energy_audit_artifacts(self, tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out, horizon=0.2, warmup=0.1))
        assert main(["energy-audit", "--config", str(p)]) == 0
        lines = (out / "energy.csv").read_text().splitlines()
        assert lines[0] == "t,l2_sq,grad_p,q_norm,z,eta,residual"
        # warmup..warmup+horizon at dt=2e-3: nodes 50..150 inclusive
        assert len(lines) == 102
        # first and last node have no centered difference: residual is nan
        assert lines[1].endswith(",nan")
        assert not lines[2].endswith(",nan")
        report = json.loads((out / "report.json").read_text())
        assert report["max_abs_residual"] > 0.0
        assert report["audited_nodes"] == 99

    def test_energy_audit_off_zero_tau_fills_every_audited_row(self,
                                                               tmp_path):
        # Residuals are matched to rows by node index, so a start time that
        # is not a multiple of dt in binary leaves no audited row empty.
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out, n=33, dt=0.01, warmup=0.1, horizon=0.2)
                     + "[experiment]\ntau = 0.3\n")
        assert main(["energy-audit", "--config", str(p)]) == 0
        residuals = [line.rsplit(",", 1)[1] for line in
                     (out / "energy.csv").read_text().splitlines()[1:]]
        report = json.loads((out / "report.json").read_text())
        assert len(residuals) == 21 and report["audited_nodes"] == 19
        assert [i for i, r in enumerate(residuals) if r == "nan"] == [0, 20]

    def test_absorb_check_artifacts(self, tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out))
        assert main(["absorb-check", "--config", str(p)]) == 0
        raw = (out / "absorbing.csv").read_bytes()
        assert b"\r" not in raw  # report CSVs end lines in LF, fields in CRLF
        lines = raw.decode().splitlines()
        assert lines[0] == "seed,horizon,endpoint_l2_sq,bound,satisfied"
        assert len(lines) == 5  # 2 seeds x 2 horizons
        assert all(line.endswith(("true", "false")) for line in lines[1:])
        report = json.loads((out / "report.json").read_text())
        assert report["seeds"] == [0, 1]
        assert "entry_time" in report

    def test_tail_check_artifacts(self, tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out, n_seeds=1))
        assert main(["tail-check", "--config", str(p)]) == 0
        lines = (out / "tail.csv").read_text().splitlines()
        assert lines[0] == "seed,k,sigma,tail_mass"
        assert len(lines) == 5  # 1 seed x 2 k x 2 sigma
        report = json.loads((out / "report.json").read_text())
        assert report["monotone_in_k"] is True

    def test_estimate_attractor_artifacts(self, tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out, n_initials=2))
        assert main(["estimate-attractor", "--config", str(p)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["members"] >= 1
        assert report["tag"]["seed"] == 0
        assert (out / "member_000.csv").exists()
        assert (out / "member_000.bin").exists()

    def test_usc_sweep_artifacts(self, tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out, noise_case="multiplicative", alpha=0.1,
                                 n_seeds=1))
        assert main(["usc-sweep", "--config", str(p)]) == 0
        lines = (out / "usc.csv").read_text().splitlines()
        assert lines[0] == "alpha,seed,distance"
        assert len(lines) == 3  # 2 alphas x 1 seed
        med = (out / "usc_medians.csv").read_text().splitlines()
        assert med[0] == "alpha,median_distance"
        assert len(med) == 3

    def test_periodicity_check_artifacts(self, tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out, n_seeds=1))
        assert main(["periodicity-check", "--config", str(p)]) == 0
        lines = (out / "periodicity.csv").read_text().splitlines()
        assert lines[0] == "seed,tau,distance,cluster_tol,within"
        assert len(lines) == 2
        assert lines[1].endswith("true")
        report = json.loads((out / "report.json").read_text())
        assert report["all_within"] is True

    def test_stiffness_failure_exit_1_manifest_failed(self, tmp_path,
                                                      capsys):
        # The one run diverges: no data file and no report.json, so no
        # number of a run that did not finish.
        for experiment, data in [("simulate", "series.csv"),
                                 ("energy-audit", "energy.csv")]:
            out = tmp_path / experiment
            p = tmp_path / f"{experiment}.ini"
            p.write_text(base_config(out, dt=0.01) + STIFF)
            code = main([experiment, "--config", str(p)])
            assert code == 1
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["status"] == "failed"
            assert manifest["tasks"][0]["status"] == "failed"
            assert not (out / data).exists()
            assert not (out / "report.json").exists()

    @pytest.mark.parametrize("experiment, case, seeds", [
        ("estimate-attractor", "additive", {0}),
        ("usc-sweep", "additive", {None, 0, 1}),
        ("periodicity-check", "additive", {0, 1}),
        ("periodicity-check", "deterministic", {0, 1}),
        ("absorb-check", "additive", {0, 1}),
        ("tail-check", "additive", {0, 1})],
        ids=["estimate-attractor", "usc-sweep", "periodicity-check",
             "periodicity-check-deterministic", "absorb-check", "tail-check"])
    def test_diverged_pullback_members_fail_the_run(self, experiment, case,
                                                    seeds, tmp_path):
        # Members diverge (with noise, every one); the run must not report
        # an empty set as a spread, distance or periodicity of zero and exit
        # 0.  Each failure names the seed of its run, also where the model
        # has no noise.  With no member left, the attractor estimate says it
        # could not check contraction.  Initial states from sampler seed 2
        # leave seed 0's usc-sweep ensemble empty and seed 1's not, and no
        # periodicity-check member.
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out, noise_case=case, dt=0.25, horizon=2,
                                 n_initials=4, alphas="0.4") + STIFF
                     + "sampler_seed = 2\n")
        with pytest.warns(UserWarning, match="contraction unchecked") \
                if experiment == "estimate-attractor" else nullcontext():
            assert main([experiment, "--config", str(p)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        (task,) = manifest["tasks"]
        assert (manifest["status"], task["status"]) == ("failed", "failed")
        assert {f["seed"] for f in task["detail"]} == seeds
        assert all("suggested_dt" in f["report"] for f in task["detail"])
        # A distance involving an empty ensemble is nan, never 0.
        report = json.loads((out / "report.json").read_text())
        if experiment == "estimate-attractor":
            assert report["members"] == 0 and math.isnan(report["spread"])
        if experiment == "usc-sweep":
            dist = dict(line.split(",")[1:] for line in
                        (out / "usc.csv").read_text().splitlines()[1:])
            assert dist["0"] == "nan" and dist["1"] != "nan"
            assert report["medians"] == [pytest.approx(float("nan"),
                                                       nan_ok=True)]
        if experiment == "periodicity-check" and case == "additive":
            rows = (out / "periodicity.csv").read_text().splitlines()[1:]
            assert [r.split(",")[2::2] for r in rows] == [["nan", "false"]] * 2
            assert report["all_within"] is False
        if experiment == "absorb-check":
            # The bound rests on the path alone; no row is satisfied.
            assert report["entry_time"] is None
            assert not any(r["satisfied"] for r in report["per_path"])
            assert all(math.isnan(r["margin"]) for r in report["per_path"])
        if experiment == "tail-check":
            assert report["monotone_in_k"] is None and report["sigmas"] == []
            assert all(math.isnan(v) for v in report["max_per_k"].values())

    def test_cocycle_test_divergence_records_stiffness_report(self, tmp_path,
                                                              capsys):
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out, dt=0.01) + STIFF)
        assert main(["cocycle-test", "--config", str(p)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"], manifest["outputs"]) == ("failed", [])
        (task,) = manifest["tasks"]
        assert task["status"] == "failed"
        assert set(task["detail"]) == {"t", "dt", "halvings", "norm_before",
                                       "norm_after", "suggested_dt"}
        assert "StiffnessError" in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out))
        assert main(["simulate", "--config", str(p)]) == 0
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert main(["simulate", "--config", str(p)]) == 0
        second = {f.name: f.read_bytes() for f in out.iterdir()}
        assert set(first) == set(second)
        for name in first:
            if name == "manifest.json":
                continue
            assert first[name] == second[name], name
        m1 = json.loads(first["manifest.json"])
        m2 = json.loads(second["manifest.json"])
        for key in ("started_at", "finished_at"):
            m1.pop(key), m2.pop(key)
        assert m1 == m2

    def test_worker_count_does_not_change_csv(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        p = tmp_path / "run.ini"
        p.write_text(base_config(out))
        monkeypatch.setenv("PLRDS_WORKERS", "2")
        assert main(["absorb-check", "--config", str(p)]) == 0
        pooled = (out / "absorbing.csv").read_bytes()
        monkeypatch.setenv("PLRDS_WORKERS", "1")
        assert main(["absorb-check", "--config", str(p)]) == 0
        serial = (out / "absorbing.csv").read_bytes()
        assert pooled == serial

    def test_workers_env_must_be_integer(self, tmp_path, monkeypatch,
                                         capsys):
        p = tmp_path / "run.ini"
        p.write_text(base_config(tmp_path / "out"))
        monkeypatch.setenv("PLRDS_WORKERS", "many")
        assert main(["validate", "--config", str(p)]) == 2
        assert "PLRDS_WORKERS" in capsys.readouterr().err

    def test_workers_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        p = tmp_path / "run.ini"
        p.write_text(base_config(tmp_path / "out"))
        monkeypatch.setenv("PLRDS_WORKERS", "2")
        assert main(["validate", "--config", str(p), "--workers", "3"]) == 0
        assert "workers=3" in capsys.readouterr().out


class TestOneRowPerCall:
    """Each cocycle_apply call evolves one state on one path, so a traced
    run's step count, round(t / dt) summed over the calls, equals its rows
    times their steps: the work shape of the absorb-check, estimate-attractor
    and energy-audit benchmark workloads, here on small grids."""

    WORKLOADS = {
        # 2 seeds x 2 initial states x horizons 0.5, 1, 2
        "absorb-check": ("[problem]\nnoise_case = additive\n[grid]\nn = 33\n"
                         "[experiment]\nhorizons = 0.5, 1, 2\nn_seeds = 2\n"
                         "n_initials = 2\n", 2 * 2 * (50 + 100 + 200)),
        # 2 initial states at the horizon and at its half (contraction check)
        "estimate-attractor": ("[problem]\nnoise_case = multiplicative\n"
                               "[grid]\ndim = 2\nn = 17\n[experiment]\n"
                               "horizon = 1\nn_initials = 2\n",
                               2 * (50 + 100)),
        # one run over the warmup and the audited horizon
        "energy-audit": ("[problem]\nnoise_case = additive\n[grid]\nn = 33\n"
                         "[experiment]\nwarmup = 0.5\nhorizon = 2.5\n", 300),
    }

    @pytest.mark.parametrize("command", sorted(WORKLOADS))
    def test_steps_are_rows_times_steps(self, command, tmp_path,
                                        monkeypatch):
        from plrds import cli, integrator
        apply, calls = integrator.cocycle_apply, []

        def counted(t, tau, path, u_tau, spec, cfg, *args, **kwargs):
            calls.append((u_tau.values.shape, round(t / cfg.dt)))
            return apply(t, tau, path, u_tau, spec, cfg, *args, **kwargs)
        for module in (integrator, analysis, cli):
            if getattr(module, "cocycle_apply", None) is apply:
                monkeypatch.setattr(module, "cocycle_apply", counted)
        body, steps = self.WORKLOADS[command]
        p = tmp_path / "run.ini"
        p.write_text(body + f"workers = 1\n[stepper]\ndt = 0.01\n[output]\n"
                            f"directory = {tmp_path / 'out'}\n")
        assert main([command, "--config", str(p)]) == 0
        grid = parse_config(p.read_text()).grid()
        assert {shape for shape, _ in calls} == {grid.shape}
        assert sum(n for _, n in calls) == steps
