import json
import os
from pathlib import Path

import pytest

from drolimit.cli import main
from drolimit.config import load_config
from drolimit.errors import InputError


def run_cli(args):
    return main(args)


def test_config_defaults_load():
    cfg = load_config(None)
    assert cfg["grid"]["n"] == [513]
    assert cfg["ambiguity"]["m"] == 0.5


def test_unknown_key_named():
    with pytest.raises(InputError, match="numerics.quod_order"):
        load_config(None, ["numerics.quod_order=8"])


@pytest.mark.parametrize("config, overrides, message", [
    (None, ["grid=5"], "grid must be an object, got 5"),
    ("[1]", [], r"config .*config\.json must hold an object"),
    (None, ["grid.dim"], "override 'grid.dim' is not of the form key.path=value"),
])
def test_config_refusals(tmp_path, config, overrides, message):
    path = None
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config)
    with pytest.raises(InputError, match=message):
        load_config(path, overrides)


def test_negative_m_rejected(tmp_path, capsys):
    code = run_cli(["properties", "--set", "ambiguity.m=-1", "--out", str(tmp_path)])
    assert code == 2
    assert "ambiguity.m" in capsys.readouterr().err


# a 2-d grid with a matching one-action model; only `properties` runs on it
TWO_D = (
    'model.actions=[{"label":"a0","drift":[0.0,0.0],"sigma":[[1.0,0.0],[0.0,1.0]]}]',
    'grid={"dim":2,"lo":[-6.0,-6.0],"hi":[6.0,6.0],"n":[17,17],'
    '"window":{"lo":[-3.0,-3.0],"hi":[3.0,3.0]}}',
)


def test_bad_model_exit_two_without_manifest(tmp_path, capsys):
    # each config is refused while it is built and checked, before any output
    cases = [
        # sigma of the wrong shape is refused while the model is built
        ("limit", ('model.actions=[{"label":"a0","drift":[0.0],"sigma":[[1.0,0.0]]}]',),
         "error: sigma"),
        # action values are type-checked; there is no family tag, and the
        # constant drift is spelled `drift`, not `kappa`
        ("limit", ('model.actions=[{"label":"a0","drift":["a"],"sigma":[[1.0]]}]',),
         "error: model.actions[0].drift.0 must be a number"),
        ("limit", ("model.family=ornstein_uhlenbeck",),
         "error: unknown configuration key model.family"),
        ("limit", ('model.actions=[{"label":"a0","sigma":[[1.0]],"theta":[[1.0]],"kappa":[0.2]}]',),
         "error: unknown configuration key model.actions[0].kappa"),
        ("limit", ('grid.window={"lo":[-7.9],"hi":[4.0]}',), "error: window"),
        ("limit", ('ambiguity.m="abc"',), "error: ambiguity.m"),
        ("limit", ("ambiguity.p=1",), "error: ambiguity.p must exceed 1"),
        # a 2-d grid under the default 1-d action: the model names the drift
        ("properties", TWO_D[1:], "error: drift must have shape (2,), got (1,)"),
        ("limit", ('numerics.quad_order="x"',), "error: numerics.quad_order"),
        ("limit", ("numerics.quad_order=2.5",), "error: numerics.quad_order"),
        ("limit", ("numerics.max_level=3.7",), "error: numerics.max_level"),
        # `limit` reads `t`, not `horizon`
        ("limit", ("experiment.parameters.horizon=0.25",),
         "error: unknown configuration key experiment.parameters.horizon"),
        ("limit", ('experiment.parameters.t="x"',), "error: experiment.parameters.t"),
        ("limit", ('experiment.parameters.function="foo"',),
         "error: experiment.parameters.function"),
        ("limit", ("experiment.parameters.function=[1]",),
         "error: experiment.parameters.function"),
        ("limit", ('experiment.name="x"',), "error: unknown configuration key experiment.name"),
        ("limit", ("output.formats=[]",), "error: unknown configuration key output.formats"),
        ("limit", TWO_D, "error: limit runs on 1-d grids only"),
        ("properties", ("experiment.parameters.trials=2.5",),
         "error: experiment.parameters.trials"),
        ("certify", TWO_D, "error: certify runs on 1-d grids only"),
        ("certify", ('experiment.parameters.experiments=["foo"]',),
         "error: experiment.parameters.experiments: unknown certifiable experiment 'foo'"),
        # no experiments or no pairs would pass on no evidence
        ("certify", ("experiment.parameters.experiments=[]",),
         "error: experiment.parameters.experiments: need one or more certifiable experiments"),
        ("semigroup", ("experiment.parameters.pairs=[]",),
         "error: experiment.parameters.pairs: need one or more semigroup pairs"),
        # a repeated experiment or pair would run again and write its label
        # twice under one gate
        ("certify", ('experiment.parameters.experiments=["heat_anchor", "heat_anchor"]',),
         "error: experiment.parameters.experiments: repeated certifiable experiment 'heat_anchor'"),
        ("semigroup", ("experiment.parameters.pairs=[[0.25, 0.25], [0.25, 0.25]]",),
         "error: experiment.parameters.pairs: repeated semigroup pair [0.25, 0.25]"),
        ("crosscheck", ("experiment.parameters.horizon=2.0",),
         "error: experiment.parameters.horizon: cross-check horizons are limited to T <= 1"),
        ("semigroup", ("experiment.parameters.pairs=[[0.25, 0.25], [0.75, 0.5]]",),
         "error: experiment.parameters.pairs: semigroup pairs must satisfy s + t <= 1"),
        ("semigroup", ("experiment.parameters.pairs=[[0.5]]",),
         "error: experiment.parameters.pairs: semigroup pairs must be [s, t] number pairs"),
        ("semigroup", ("experiment.parameters.pairs=[[-0.5, 0.25]]",),
         "error: experiment.parameters.pairs: semigroup pairs must be nonnegative"),
        ("semigroup", ("experiment.parameters.pairs=[0.5]",),
         "error: experiment.parameters.pairs.0 must be a list"),
        ("sensitivity", ("experiment.parameters.t_list=[0.1, -0.05]",),
         "error: experiment.parameters.t_list: need one or more positive times"),
        ("sensitivity", ('experiment.parameters.t_list=["a"]',),
         "error: experiment.parameters.t_list.0 must be a number"),
        ("sensitivity", ("experiment.parameters.t_list=0.1",),
         "error: experiment.parameters.t_list must be a list"),
        ("generator", ("experiment.parameters.t_list=[0.1, 0.0]",),
         "error: experiment.parameters.t_list: need one or more positive times"),
        # the generator's limits stop at level 6, where t <= 2^-6 is one period
        ("generator", ("experiment.parameters.t_list=[0.02, 0.01]",),
         "error: experiment.parameters.t_list: t = 0.01 has one dyadic partition at every level"
         " up to 6"),
        # the generator's stop tolerance, the gates and the candidate reach
        # are constants, not settings
        ("generator", ("experiment.parameters.stop_tol=-1",),
         "error: unknown configuration key experiment.parameters.stop_tol"),
        ("sensitivity", ("experiment.parameters.final_factor=1.0",),
         "error: unknown configuration key experiment.parameters.final_factor"),
        ("crosscheck", ("experiment.parameters.tol=1.0",),
         "error: unknown configuration key experiment.parameters.tol"),
        ("limit", ("numerics.reach_factor=NaN",),
         "error: unknown configuration key numerics.reach_factor"),
        # non-finite numbers are refused with the other out-of-range values
        ("semigroup", ("experiment.parameters.pairs=[[0.25, NaN]]",),
         "error: experiment.parameters.pairs: semigroup pairs must be nonnegative and finite"),
        ("sensitivity", ("experiment.parameters.t_list=[0.1, NaN]",),
         "error: experiment.parameters.t_list: need one or more positive times, all finite"),
        ("sensitivity", ("experiment.parameters.t_list=[0.1, Infinity]",),
         "error: experiment.parameters.t_list: need one or more positive times, all finite"),
        ("generator", ("experiment.parameters.t_list=[0.1, NaN]",),
         "error: experiment.parameters.t_list: need one or more positive times, all finite"),
        ("pde", ("experiment.parameters.snapshots=[NaN]",),
         "error: experiment.parameters.snapshots: snapshot times must lie in [0, horizon]"),
        ("pde", ("experiment.parameters.horizon=Infinity",),
         "error: experiment.parameters.horizon: horizon must be nonnegative and finite"),
        ("limit", ("experiment.parameters.t=Infinity",),
         "error: experiment.parameters.t: must be nonnegative and finite"),
        ("properties", ("experiment.parameters.trials=0",),
         "error: experiment.parameters.trials: need at least one trial"),
        ("properties", ("experiment.parameters.dual_trials=0",),
         "error: experiment.parameters.dual_trials: need at least one trial"),
        ("pde", ("experiment.parameters.horizon=-1",),
         "error: experiment.parameters.horizon: horizon must be nonnegative"),
        ("pde", ("experiment.parameters.snapshots=[2.0]",),
         "error: experiment.parameters.snapshots: snapshot times must lie in [0, horizon]"),
        ("pde", ('experiment.parameters.snapshots=["a"]',),
         "error: experiment.parameters.snapshots: could not convert"),
        ("limit", ("experiment.parameters.t=-1",),
         "error: experiment.parameters.t: must be nonnegative"),
        ("crosscheck", ("experiment.parameters.horizon=-0.5",),
         "error: experiment.parameters.horizon: must be nonnegative"),
        ("limit", ("numerics.max_level=11",), "error: numerics.max_level must lie in [0, 10]"),
        ("limit", ("numerics.max_level=-1",), "error: numerics.max_level must lie in [0, 10]"),
        ("limit", ("numerics.stop_tol=-1",), "error: numerics.stop_tol must lie in [0, inf]"),
        ("limit", ("numerics.quad_order=2",), "error: numerics.quad_order must lie in [4, 64]"),
        ("pde", ("numerics.cfl_safety=2",), "error: numerics.cfl_safety must lie in (0, 1]"),
        ("limit", ('grid.lo=["a"]',), "error: grid.lo.0 must be a number"),
        # grid.dim must be the length of grid.lo, named before the model is built
        ("properties", (TWO_D[0], TWO_D[1].replace('"dim":2,', "")),
         "error: grid.dim is 1 but grid.lo has 2 entries"),
        ("limit", ("grid.dim=2",), "error: grid.dim is 2 but grid.lo has 1 entries"),
        ("limit", ("numerics.cand_per_side=0",),
         "error: numerics.cand_per_side must lie in [1, inf], got 0"),
        ("limit", ("grid.n=[12.5]",), "error: grid.n.0 must be an integer"),
        # a finite horizon that would run without bound: too many dyadic gaps
        # or explicit time steps
        ("limit", ("experiment.parameters.t=1e300", "grid.n=[65]"),
         "error: experiment.parameters.t: t = 1e+300 needs more than 65536 dyadic gaps at level 8"),
        ("limit", ("experiment.parameters.t=65", "numerics.max_level=10"),
         "error: experiment.parameters.t: t = 65 needs more than 65536 dyadic gaps at level 10"),
        # a horizon with one dyadic partition at every level has no level gap
        ("limit", ("experiment.parameters.t=0.001",),
         "error: experiment.parameters.t: t = 0.001 has one dyadic partition at every level"
         " up to 8"),
        ("limit", ("numerics.max_level=0",),
         "error: experiment.parameters.t: t = 1.0 has one dyadic partition at every level"
         " up to 0"),
        # the same for a cross-check horizon and every s, t and s + t of a pair
        ("crosscheck", ("experiment.parameters.horizon=0.001",),
         "error: experiment.parameters.horizon: t = 0.001 has one dyadic partition at every"
         " level up to 8"),
        ("crosscheck", ("numerics.max_level=0",),
         "error: experiment.parameters.horizon: t = 0.5 has one dyadic partition at every"
         " level up to 0"),
        ("semigroup", ("experiment.parameters.pairs=[[0.001, 0.001]]",),
         "error: experiment.parameters.pairs: t = 0.001 has one dyadic partition at every"
         " level up to 8"),
        ("semigroup", ("experiment.parameters.pairs=[[0.25, 0.001]]",),
         "error: experiment.parameters.pairs: t = 0.001 has one dyadic partition at every"
         " level up to 8"),
        ("pde", ("experiment.parameters.horizon=1e300", "grid.n=[65]"),
         "error: experiment.parameters.horizon: horizon 1e+300 takes more than 1048576 time steps"),
    ]
    for i, (subcommand, overrides, message) in enumerate(cases):
        out = tmp_path / f"bad{i}"
        args = [subcommand, "--out", str(out)]
        for override in overrides:
            args += ["--set", override]
        code = run_cli(args)
        assert code == 2, overrides
        assert capsys.readouterr().err.startswith(message), overrides
        assert not (out / "manifest.json").exists(), overrides


def test_bad_output_or_seed_exit_two_without_manifest(tmp_path, capsys):
    # an --out that cannot be made and a negative --seed are input errors,
    # named before anything is written
    blocker = tmp_path / "file"
    blocker.write_text("")
    cases = [
        (["limit", "--out", str(blocker / "sub")],
         f"error: [Errno 20] Not a directory: '{blocker / 'sub'}'"),
        (["properties", "--seed", "-1", "--out", str(tmp_path / "seed1")],
         "error: --seed must be nonnegative, got -1"),
        (["all", "--seed", "-3", "--out", str(tmp_path / "seed3")],
         "error: --seed must be nonnegative, got -3"),
    ]
    for args, message in cases:
        assert run_cli(args) == 2, args
        assert capsys.readouterr().err.startswith(message), args
        assert not (Path(args[-1]) / "manifest.json").exists(), args


def test_model_error_during_run_exits_two(tmp_path, monkeypatch, capsys):
    from drolimit import cli

    def refuse(*args, **kwargs):
        raise InputError("no such law")

    monkeypatch.setattr(cli, "scaling_limit", refuse)
    assert run_cli(["limit", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: no such law\n"
    assert not (tmp_path / "manifest.json").exists()


def test_internal_error_during_run_exits_three(tmp_path, monkeypatch, capsys):
    # any other exception is an internal error: a traceback, no manifest
    from drolimit import cli

    def fail(*args, **kwargs):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(cli, "scaling_limit", fail)
    assert run_cli(["limit", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.endswith("RuntimeError: broken invariant\n")
    assert not (tmp_path / "manifest.json").exists()


def test_memory_refusal_during_run_writes_no_manifest(tmp_path, capsys):
    # the memory guard refuses in the run's first step: no machine holds one
    # step of this lattice, and the run leaves no manifest behind
    args = ["limit", "--set", "numerics.cand_per_side=100000000", "--out", str(tmp_path)]
    assert run_cli(args) == 2
    assert capsys.readouterr().err.startswith("error: one step needs")
    assert not (tmp_path / "manifest.json").exists()


def test_readme_limit_example(tmp_path):
    # the README's `drolimit limit` example converges with the defaults
    assert run_cli(["limit", "--set", "experiment.parameters.t=0.25", "--out", str(tmp_path)]) == 0


def test_limit_runs_an_action_with_theta(tmp_path):
    # theta is an action key of its own: an Ornstein-Uhlenbeck action needs
    # no family tag
    action = {"label": "a0", "drift": [0.2], "sigma": [[1.0]], "theta": [[1.0]]}
    code = run_cli(
        ["limit", "--out", str(tmp_path), "--set", "model.actions=" + json.dumps([action]),
         "--set", "experiment.parameters.t=0.25"]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["model"] == {"actions": [action]}
    assert (tmp_path / "limit_field.csv").exists()


def test_whole_section_override_keeps_defaults(tmp_path):
    # an override that replaces a section, or a nested one, gets the keys it
    # leaves out from the defaults, as a config file does
    cfg = load_config(None, ['ambiguity={"m":1.0}', 'grid.window={"lo":[-3.0]}'])
    assert cfg["ambiguity"] == {"m": 1.0, "p": 2.0}
    assert cfg["grid"]["window"] == {"lo": [-3.0], "hi": [4.0]}
    out = tmp_path / "pde"
    code = run_cli(
        ["pde", "--out", str(out), "--set", 'ambiguity={"m":0.25}',
         "--set", "experiment.parameters.horizon=0.05"] + SMALL
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["ambiguity"] == {"m": 0.25, "p": 2.0}


def test_config_file_partial_section_keeps_defaults(tmp_path):
    # a config file that sets some keys of a section, or of a nested one,
    # keeps the defaults of the keys it leaves out
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({
        "numerics": {"max_level": 6}, "grid": {"window": {"lo": [-3.0]}},
        "experiment": {"parameters": {"t": 0.5}},
    }))
    cfg = load_config(str(path))
    defaults = load_config(None)
    assert cfg["numerics"] == {**defaults["numerics"], "max_level": 6}
    assert cfg["grid"] == {**defaults["grid"], "window": {"lo": [-3.0], "hi": [4.0]}}
    assert cfg["experiment"]["parameters"] == {"t": 0.5}
    assert cfg["model"] == defaults["model"] and cfg["ambiguity"] == defaults["ambiguity"]


def test_bad_config_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli(["limit", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_override_applies():
    cfg = load_config(None, ["ambiguity.m=0.25", "grid.n=[65]"])
    assert cfg["ambiguity"]["m"] == 0.25
    assert cfg["grid"]["n"] == [65]


SMALL = [
    "--set", "grid.n=[129]",
    "--set", "numerics.quad_order=8",
    "--set", "numerics.cand_per_side=6",
    "--set", "numerics.max_level=4",
    "--set", "numerics.stop_tol=5e-3",
]


def test_properties_subcommand(tmp_path):
    out = str(tmp_path / "props")
    code = run_cli(
        ["properties", "--out", out, "--seed", "0",
         "--set", "experiment.parameters.trials=4",
         "--set", "experiment.parameters.dual_trials=20"] + SMALL
    )
    assert code == 0
    report = json.loads((tmp_path / "props" / "report.json").read_text())
    names = {r["name"] for r in report}
    assert names == {"operator_properties", "dual_oracle_equivalence"}
    props = next(r for r in report if r["name"] == "operator_properties")
    worst = dict((k, v) for k, v in props["measured"])
    assert worst["contraction"] <= 1e-9
    assert all(r["passed"] for r in report)
    assert (tmp_path / "props" / "manifest.json").exists()
    assert (tmp_path / "props" / "summary.csv").exists()
    timings = json.loads((tmp_path / "props" / "timings.json").read_text())
    assert len(timings) == len(report)
    assert all(isinstance(t, float) for _, t in timings)


def test_crosscheck_heat_exit_zero(tmp_path):
    out = str(tmp_path / "xc")
    code = run_cli(
        ["crosscheck", "--out", out,
         "--set", "ambiguity.m=0.0",
         "--set", "experiment.parameters.function=\"cos\"",
         "--set", "experiment.parameters.horizon=0.5"] + SMALL
    )
    assert code == 0
    report = json.loads((tmp_path / "xc" / "report.json").read_text())
    assert report[0]["measured"][0][1] <= 5e-3
    assert (tmp_path / "xc" / "crosscheck_limit.csv").exists()


def test_failing_check_exit_one(tmp_path):
    # a stop tolerance of 0 is never met, so the limit does not converge
    out = str(tmp_path / "fail")
    code = run_cli(["limit", "--out", out] + SMALL + ["--set", "numerics.stop_tol=0"])
    assert code == 1


def test_limit_writes_gap_table(tmp_path):
    out = tmp_path / "lim"
    code = run_cli(
        ["limit", "--out", str(out), "--set", "experiment.parameters.t=0.5"]
        + SMALL + ["--set", "numerics.stop_tol=1e-2"]
    )
    assert code == 0
    lines = (out / "limit_gaps.csv").read_text().splitlines()
    assert lines[0] == "level,gap"
    assert len(lines) >= 2
    assert all(line.split(",")[0].isdigit() for line in lines[1:])  # integer levels
    assert (out / "limit_field.csv").exists()


def test_pde_subcommand(tmp_path):
    out = tmp_path / "pde"
    code = run_cli(
        ["pde", "--out", str(out),
         "--set", "experiment.parameters.function=\"cos\"",
         "--set", "experiment.parameters.horizon=0.25"] + SMALL
    )
    assert code == 0
    summary = json.loads((out / "pde_summary.json").read_text())
    assert set(summary) == {"dt", "steps", "cfl_safety", "horizon"}
    assert summary["horizon"] == 0.25
    assert (out / "pde_snapshots.csv").exists()


def test_pde_summary_reports_the_steps_taken(tmp_path, monkeypatch):
    # a snapshot off the step grid takes one extra, shortened step
    from drolimit import pde

    calls = []
    step = pde.step_forward
    monkeypatch.setattr(pde, "step_forward", lambda *a, **k: calls.append(1) or step(*a, **k))
    out = tmp_path / "pde"
    code = run_cli(["pde", "--out", str(out), "--set", "experiment.parameters.snapshots=[0.1234]"])
    assert code == 0
    summary = json.loads((out / "pde_summary.json").read_text())
    assert summary["steps"] == len(calls) == 651


def test_pde_summary_without_cfl_bound_is_strict_json(tmp_path):
    # sigma = 0, drift 0 and m = 0: no bound, one step of the horizon
    out = tmp_path / "pde"
    code = run_cli(
        ["pde", "--out", str(out), "--set", "ambiguity.m=0",
         "--set", 'model.actions=[{"label":"a0","drift":[0.0],"sigma":[[0.0]]}]']
    )
    assert code == 0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    summary = json.loads((out / "pde_summary.json").read_text(), parse_constant=refuse)
    assert summary["dt"] == summary["horizon"] == 0.5
    assert summary["steps"] == 1


def test_sensitivity_subcommand(tmp_path):
    out = tmp_path / "sens"
    code = run_cli(
        ["sensitivity", "--out", str(out), "--set", "ambiguity.m=0.0"] + SMALL
    )
    assert code == 0
    lines = (out / "sensitivity.csv").read_text().splitlines()
    assert lines[0] == "t,error"
    assert len(lines) == 5


def test_error_tables_keep_every_digit_of_t(tmp_path):
    # the t column is the report's t_list, not t as the error labels round it
    # (the t is above 2^-6, the generator's shortest refinable time)
    for name in ("sensitivity", "generator"):
        out = tmp_path / name
        run_cli(
            [name, "--out", str(out), "--set", "ambiguity.m=0.0",
             "--set", "experiment.parameters.t_list=[0.0234567891, 0.2]"] + SMALL
        )
        lines = (out / f"{name}.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["t", "0.2", "0.0234567891"]
        report = json.loads((out / "report.json").read_text())
        assert report[0]["parameters"]["t_list"] == [0.2, 0.0234567891]


def test_generator_subcommand_default_grid(tmp_path):
    # the coarse test grid cannot resolve the small-t quotient, so this one
    # runs at the default resolution (m=0 keeps it cheap: no dual solves)
    out = tmp_path / "gen"
    code = run_cli(["generator", "--out", str(out), "--set", "ambiguity.m=0.0"])
    assert code == 0
    assert (out / "generator.csv").exists()


def test_semigroup_subcommand_default_grid(tmp_path):
    out = tmp_path / "semi"
    code = run_cli(
        ["semigroup", "--out", str(out),
         "--set", "experiment.parameters.pairs=[[0.25, 0.25]]"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report[0]["passed"]


def test_semigroup_labels_times_that_agree_to_six_digits_apart(tmp_path):
    # six significant digits print both s as 0.123456; each label keeps the
    # shortest repr that gives its time back
    out = tmp_path / "semi"
    code = run_cli(
        ["semigroup", "--out", str(out), "--quiet", "--set", "grid.n=[65]",
         "--set", "experiment.parameters.pairs=[[0.1234561, 0.25], [0.1234564, 0.25]]"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    labels = [label for label, _ in report[0]["measured"]]
    assert labels == ["gap_s=0.1234561_t=0.25", "gap_s=0.1234564_t=0.25"]
    assert sorted(report[0]["thresholds"]) == sorted(labels)


def test_certify_subcommand_heat_only(tmp_path):
    out = tmp_path / "cert"
    code = run_cli(
        ["certify", "--out", str(out),
         "--set", "experiment.parameters.experiments=[\"heat_anchor\"]"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report[0]["name"] == "refinement_certificates"
    assert report[0]["passed"]


def test_all_and_certify_run_the_anchors_at_the_configs_cfl_safety(tmp_path, monkeypatch):
    # every PDE route of the anchors and of their certificates, base and
    # refined, marches at numerics.cfl_safety; the other checks are stubbed
    from drolimit import validation

    seen = []

    def report(name):
        return validation.CheckReport(
            name, {}, [("operator_pde_gap", 0.0)], {"operator_pde_gap": 1.0}, 0.0
        )

    def crosscheck(*args, cfl_safety=None, name="", **kwargs):
        seen.append(cfl_safety)
        return report(name)

    monkeypatch.setattr(validation, "cross_check_pde", crosscheck)
    monkeypatch.setattr(validation, "_game_dominance_violation", lambda cfg: 0.0)
    for check in ("check_dual_oracle", "check_operator_properties", "check_refinement_monotonicity",
                  "check_sensitivity", "check_generator", "check_semigroup"):
        monkeypatch.setattr(validation, check, lambda *args, **kwargs: report("stub"))
    for sub in ("certify", "all"):
        seen.clear()
        out = str(tmp_path / sub)
        assert run_cli([sub, "--set", "numerics.cfl_safety=0.5", "--out", out, "--quiet"]) == 0
        assert seen == [0.5] * 6, sub


def test_outputs_deterministic(tmp_path):
    args = ["limit", "--set", "experiment.parameters.t=0.25"] + SMALL
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli(args + ["--out", out1]) == 0
    assert run_cli(args + ["--out", out2]) == 0
    for name in ("manifest.json", "report.json", "limit_gaps.csv", "limit_field.csv", "summary.csv"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name
