import ast
import json
from pathlib import Path

import pytest

from solenoidlab import cli
from solenoidlab.cli import BUDGETS, WINDOWS, RunConfig, default_params, main, run_experiment
from solenoidlab.periodic import PeriodicFn, cohomological_phi
from solenoidlab.words import SystemParams


def small_budgets():
    return {
        "mx_samples": 20000,
        "mx_level_min": 4,
        "mx_level_max": 10,
        "box_points": 20000,
        "box_level_min": 3,
        "box_level_max": 6,
        "render_points": 5000,
        "resolution": 32,
        "w_level_max": 5,
        "theta_n_max": 14,
        "porosity_words": 2,
        "porosity_depth": 12,
    }


def test_config_round_trip():
    cfg = RunConfig(
        params=SystemParams(3, 0.5, PeriodicFn.cosine(), truncation_tol=1e-8),
        experiments=("dim-estimate", "render"),
        seed=7,
        budgets={"mx_samples": 1000},
        outdir="somewhere",
    )
    back = RunConfig.from_json(cfg.to_json())
    assert back == cfg


def test_invalid_budget_rejected():
    doc = {"system": {"b": 2, "gamma": 0.4, "phi": [[1, 1, 0]]}, "budgets": {"x": -1}}
    with pytest.raises(ValueError):
        RunConfig.from_json(json.dumps(doc))


def test_empty_experiment_list_is_success(tmp_path):
    cfg = RunConfig(default_params(), (), outdir=str(tmp_path))
    assert run_experiment(cfg) == {}


def test_unknown_experiment_rejected(tmp_path):
    cfg = RunConfig(default_params(), ("nope",), outdir=str(tmp_path))
    with pytest.raises(ValueError):
        run_experiment(cfg)


def test_non_integral_system_fields_exit_2_naming_the_field(tmp_path, capsys):
    system = {"b": 2, "gamma": 0.4, "phi": [[1, 1.0, 0.0]]}
    cases = [
        ("b", {"system": {**system, "b": 2.7}}),
        ("b", {"system": {**system, "b": True}}),
        ("seed", {"system": system, "seed": 1.9}),
        ("seed", {"system": system, "seed": True}),
        ("harmonic index", {"system": {**system, "phi": [[1.5, 1.0, 0.0]]}}),
    ]
    for field_name, doc in cases:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**doc, "experiments": ["dichotomy-check"]}))
        assert main(["run", "--config", str(config), "--outdir", str(tmp_path / "out")]) == 2
        assert f"{field_name} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    integral = {"system": {**system, "b": 3.0, "phi": [[2.0, 1.0, 0.0]]}, "seed": 4.0}
    cfg = RunConfig.from_json(json.dumps(integral))
    assert (cfg.params.b, cfg.seed, cfg.params.phi.to_triples()) == (3, 4, [(2, 1.0, 0.0)])


@pytest.mark.parametrize(
    "phi, message",
    [
        ([1], "phi entry 0 must be a [k, a_k, b_k] list, got 1"),
        ([[1, 1.0, 0.0], [2, 0.5]], "phi entry 1 must be a [k, a_k, b_k] list, got [2, 0.5]"),
        ([[1, 1.0, 0.0, 0.0]], "phi entry 0 must be a [k, a_k, b_k] list"),
        (["abc"], "phi entry 0 must be a [k, a_k, b_k] list, got 'abc'"),
        ({"1": [1.0, 0.0]}, "phi must be a list of [k, a_k, b_k] entries"),
        ([[1, "x", 0.0]], "phi entry 0 coefficients must be numbers, got [1, 'x', 0.0]"),
        ([[1, 1.0, None]], "phi entry 0 coefficients must be numbers, got [1, 1.0, None]"),
        ([[1, True, False]], "phi entry 0 coefficients must be numbers, got [1, True, False]"),
        ([[1, "1.5", 0.0]], "phi entry 0 coefficients must be numbers, got [1, '1.5', 0.0]"),
    ],
)
def test_malformed_phi_entry_exits_2_naming_the_entry(tmp_path, capsys, phi, message):
    config = tmp_path / "cfg.json"
    doc = {"system": {"b": 2, "gamma": 0.4, "phi": phi}, "experiments": ["dichotomy-check"]}
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


SYSTEM = {"b": 2, "gamma": 0.4, "phi": [[1, 1.0, 0.0]]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "the config must be a JSON object, got []"),
        ({"system": []}, "system must be a JSON object, got []"),
        ({"system": SYSTEM, "budgets": [1]}, "budgets must be a JSON object, got [1]"),
        ({"system": SYSTEM, "experiments": [["render"]]}, "experiments must be a list of strings, got [["),
        ({"system": SYSTEM, "experiments": "render"}, "experiments must be a list of strings, got 'render'"),
        ({"system": SYSTEM, "outdir": None}, "outdir must be a string, got None"),
        ({"system": {**SYSTEM, "gamma": True}}, "gamma must be a number, got True"),
        ({"system": {**SYSTEM, "gamma": "0.4"}}, "gamma must be a number, got '0.4'"),
        ({"system": {**SYSTEM, "truncation_tol": True}}, "truncation_tol must be a number, got True"),
        ({"experiments": []}, "the config is missing the required field system"),
        ({"system": {"gamma": 0.4}}, "system is missing the required field b"),
        ({"system": {"b": 2, "phi": [[1, 1.0, 0.0]]}}, "system is missing the required field gamma"),
        ({"system": SYSTEM, "seed": -1, "experiments": ["dichotomy-check", "porosity"]},
         "seed must be non-negative, got -1"),
    ],
)
def test_malformed_config_shape_exits_2_naming_the_field(tmp_path, capsys, doc, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_negative_seed_override_exits_2_before_any_folder(tmp_path, capsys):
    assert main(["dichotomy-check", "--seed", "-1", "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not (tmp_path / "out").exists()


def test_memory_error_exits_2_before_any_folder(tmp_path, capsys, monkeypatch):
    def too_large(cfg):
        raise MemoryError("Unable to allocate 512. TiB for an array")

    monkeypatch.setitem(cli.EXPERIMENTS, "weierstrass", too_large)
    assert main(["weierstrass", "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 512. TiB for an array\n"
    assert not (tmp_path / "out").exists()


def test_dichotomy_check_degenerate_summary(tmp_path):
    phi = cohomological_phi(PeriodicFn.cosine(), 2, 0.4)
    cfg = RunConfig(
        SystemParams(2, 0.4, phi), ("dichotomy-check",), outdir=str(tmp_path)
    )
    res = run_experiment(cfg)
    assert res["dichotomy-check"]["verdict"] == "H*"
    text = (tmp_path / "dichotomy-check" / "summary.txt").read_text()
    assert "verdict: H*" in text


def test_dim_estimate_reports_slope_and_prediction(tmp_path):
    cfg = RunConfig(
        default_params(), ("dim-estimate",), budgets=small_budgets(), outdir=str(tmp_path)
    )
    res = run_experiment(cfg)["dim-estimate"]
    assert "fiber_entropy_slope" in res and "predicted_dimension" in res
    text = (tmp_path / "dim-estimate" / "summary.txt").read_text()
    assert "fiber_entropy_slope" in text and "predicted_dimension" in text
    assert (tmp_path / "dim-estimate" / "entropy_profile.csv").exists()


def test_reports_bit_identical_under_same_seed(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        cfg = RunConfig(
            default_params(),
            ("dim-estimate", "separation-scan", "render"),
            seed=5,
            budgets=small_budgets(),
            outdir=str(out),
        )
        run_experiment(cfg)
    for rel in (
        "dim-estimate/summary.txt",
        "dim-estimate/entropy_profile.csv",
        "separation-scan/scan.csv",
        "render/attractor.pgm",
    ):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = RunConfig(
        default_params(), ("dichotomy-check",), budgets={}, outdir=str(tmp_path / "out")
    )
    cfg_path.write_text(cfg.to_json())
    assert main(["run", "--config", str(cfg_path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {"b": 2, "gamma": 0.4}, "experiments": ["zzz"]}))
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def test_main_single_experiment_with_budget_override(tmp_path):
    code = main(
        [
            "dichotomy-check",
            "--outdir",
            str(tmp_path),
            "--seed",
            "3",
            "--budget",
            "word_depth=8",
        ]
    )
    assert code == 0
    assert (tmp_path / "dichotomy-check" / "summary.txt").exists()


def test_non_integral_budgets_rejected_at_the_edge(tmp_path, capsys):
    doc = {"system": {"b": 2, "gamma": 0.4, "phi": [[1, 1, 0]]}, "budgets": {"mx_samples": True}}
    with pytest.raises(ValueError, match="mx_samples"):
        RunConfig.from_json(json.dumps(doc))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**doc, "experiments": ["dichotomy-check"]}))
    assert main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 2
    assert "mx_samples" in capsys.readouterr().err
    argv = ["dichotomy-check", "--outdir", str(tmp_path), "--budget", "word_depth=1.5"]
    assert main(argv) == 2
    assert "word_depth" in capsys.readouterr().err
    argv = ["dichotomy-check", "--outdir", str(tmp_path), "--budget", "x_grid=0"]
    assert main(argv) == 2
    assert "x_grid" in capsys.readouterr().err


def test_non_finite_budgets_rejected_at_the_edge(tmp_path, capsys):
    doc = {
        "system": {"b": 2, "gamma": 0.4, "phi": [[1, 1, 0]]},
        "experiments": ["porosity"],
        "budgets": {"porosity_eps": float("nan")},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg_path), "--outdir", str(tmp_path / "out")]) == 2
    assert "porosity_eps" in capsys.readouterr().err
    for value in ("nan", "inf", "abc"):
        argv = ["separation-scan", "--outdir", str(tmp_path / "out")]
        argv += ["--budget", f"epsilon={value}"]
        assert main(argv) == 2
        assert "epsilon" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_weierstrass_term_cap_exits_2(tmp_path, capsys):
    argv = ["weierstrass", "--outdir", str(tmp_path / "out"), "--budget", "weierstrass_lambda=0.99"]
    assert main(argv) == 2
    assert "lambda=0.99" in capsys.readouterr().err


def test_failed_experiment_leaves_no_empty_folder(tmp_path):
    outdir = tmp_path / "out"
    argv = ["dichotomy-check", "--outdir", str(outdir), "--budget", "word_depth=1.5"]
    assert main(argv) == 2
    assert not outdir.exists()
    assert main(["dichotomy-check", "--outdir", str(outdir)]) == 0
    argv = ["decomposition-check", "--outdir", str(outdir), "--budget", "decomp_n=1.5"]
    assert main(argv) == 2
    assert sorted(p.name for p in outdir.iterdir()) == ["dichotomy-check"]


def test_decomposition_tile_over_the_cap_exits_2_before_any_folder(tmp_path, capsys):
    # nhat(6) + nhat(4) = 10 + 7 here: a tile of 3^17 words
    config = tmp_path / "b3.json"
    config.write_text(json.dumps({"system": {"b": 3, "gamma": 0.5, "phi": [[1, 1.0, 0.0]]}}))
    outdir = tmp_path / "out"
    assert main(["decomposition-check", "--config", str(config), "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "n=6" in err and "i_level=4" in err and str(3**17) in err and "cap 4194304" in err
    assert not outdir.exists()


def test_theta_entropy_scans_only_scales_within_the_cap(tmp_path, capsys):
    def run(gamma, *budgets):
        config = tmp_path / f"b3_{gamma}.json"
        config.write_text(json.dumps({"system": {"b": 3, "gamma": gamma, "phi": [[1, 1.0, 0.0]]}}))
        argv = ["theta-entropy", "--config", str(config), "--outdir", str(tmp_path / str(gamma))]
        return main(argv + [arg for b in budgets for arg in ("--budget", b)])

    # nhat(n) - 2 reaches 14 at n = 10 here: the scan keeps n = 8, 9
    assert run(0.5, "theta_n_min=6", "theta_n_max=8") == 0
    rows = (tmp_path / "0.5" / "theta-entropy" / "theta_entropy.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["6", "8"]
    summary = (tmp_path / "0.5" / "theta-entropy" / "summary.txt").read_text()
    assert "separation_scales: [8, 9]" in summary.splitlines()
    assert run(0.6) == 2
    err = capsys.readouterr().err
    assert "theta-entropy" in err and "materialization cap 4194304" in err


def test_failed_theta_entropy_leaves_no_partial_result(tmp_path, capsys):
    # the table's one scale fits the cap and the transversality search
    # certifies a triple here, but the separation scan that follows finds no
    # scale within the materialization cap: nhat(8) - 2 = 16 at b = 3
    config = tmp_path / "b3.json"
    config.write_text(json.dumps({"system": {"b": 3, "gamma": 0.6, "phi": [[1, 1.0, 0.0]]}}))
    outdir = tmp_path / "out"
    budgets = ["--budget", "theta_n_min=6", "--budget", "theta_n_max=6"]
    assert main(["theta-entropy", "--config", str(config), "--outdir", str(outdir)] + budgets) == 2
    assert "separation scale n=8" in capsys.readouterr().err
    assert not outdir.exists()


def test_budget_reads_match_the_budget_table():
    tree = ast.parse(Path(cli.__file__).read_text())
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_budget"]
    read = {c.args[1].value for c in calls if isinstance(c.args[1], ast.Constant)}
    assert sorted(read - set(BUDGETS)) == [], "budgets read but not declared"
    assert sorted(set(BUDGETS) - read) == [], "budgets declared but never read"


def test_every_window_bounds_declared_budgets():
    named = {name for windows in WINDOWS.values() for lo, hi, _ in windows for name in (lo, hi)}
    assert sorted(named - set(BUDGETS)) == [], "windows over undeclared budgets"


@pytest.mark.parametrize(
    "gamma, depth, tail_cells, vacuous",
    [(0.4, 14, 0.00458129844906667, False), (0.7, 14, 23.15001421991251, True)],
)
def test_porosity_reports_its_depth_dropped_tail_and_vacuous_verdict(tmp_path, gamma, depth, tail_cells, vacuous):
    # at b gamma >= 1 alpha_reference is 1: every component lies below 1 + eps
    config = tmp_path / "b2.json"
    config.write_text(json.dumps({"system": {"b": 2, "gamma": gamma, "phi": [[1, 1.0, 0.0]]}}))
    argv = ["porosity", "--config", str(config), "--outdir", str(tmp_path / "out"), "--budget", "porosity_words=1"]
    assert main(argv) == 0
    summary = (tmp_path / "out" / "porosity" / "summary.txt").read_text().splitlines()
    assert f"porosity_depth: {depth}" in summary
    assert f"dropped_tail_cells: {tail_cells!r}" in summary
    assert f"vacuous: {vacuous}" in summary
    assert len((tmp_path / "out" / "porosity" / "porosity.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize(
    "experiment, budget, b, power",
    [("porosity", "porosity_word_len", 2, 64), ("porosity", "porosity_word_len", 3, 40),
     ("separation-scan", "ell", 2, 64)],
)
def test_code_draws_beyond_int64_exit_2_before_any_folder(tmp_path, capsys, experiment, budget, b, power):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"system": {"b": b, "gamma": 0.4, "phi": [[1, 1.0, 0.0]]}}))
    outdir = tmp_path / "out"
    argv = [experiment, "--config", str(config), "--outdir", str(outdir), "--budget", f"{budget}={power}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{budget}={power}" in err and str(b**power) in err and "2^63" in err
    assert f"allowed at b={b} is {power - 1}" in err
    assert not outdir.exists()


def test_experiment_subcommand_honours_config_seed_and_outdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "c.json"
    config.write_text(RunConfig(default_params(), (), seed=7, outdir=str(tmp_path / "cfg")).to_json())
    assert main(["dichotomy-check", "--config", str(config)]) == 0
    assert "seed: 7" in (tmp_path / "cfg" / "dichotomy-check" / "summary.txt").read_text().splitlines()
    assert not (tmp_path / "out").exists()
    argv = ["dichotomy-check", "--config", str(config), "--seed", "3", "--outdir", str(tmp_path / "cli")]
    assert main(argv) == 0
    assert "seed: 3" in (tmp_path / "cli" / "dichotomy-check" / "summary.txt").read_text().splitlines()


def test_unknown_budget_name_exits_2_before_any_folder(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["dichotomy-check", "--outdir", str(outdir), "--budget", "word_dpeth=3"]) == 2
    assert "word_dpeth" in capsys.readouterr().err
    assert not outdir.exists()


def test_non_integral_integer_budget_raises_at_construction():
    with pytest.raises(ValueError, match="word_depth"):
        RunConfig(default_params(), ("dichotomy-check",), budgets={"word_depth": 1.5})
    RunConfig(default_params(), (), budgets={"epsilon": 1.5, "weierstrass_lambda": 0.7})


def test_theta_entropy_table_beyond_the_cap_exits_2_naming_theta_n_max(tmp_path, capsys):
    config = tmp_path / "b3.json"
    phi = [[1, 1.0, 0.0], [2, 0.5, 0.3]]
    config.write_text(json.dumps({"system": {"b": 3, "gamma": 0.3, "phi": phi}}))
    outdir = tmp_path / "out"
    assert main(["theta-entropy", "--config", str(config), "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "theta-entropy" in err and "n=18" in err and "theta_n_max" in err
    assert not outdir.exists()


def run_after_dichotomy(tmp_path, experiment, budgets):
    """`run` over dichotomy-check then ``experiment``; returns the exit code."""
    doc = {"system": {"b": 2, "gamma": 0.4, "phi": [[1, 1, 0]]},
           "experiments": ["dichotomy-check", experiment], "budgets": budgets}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    return main(["run", "--config", str(config), "--outdir", str(tmp_path / "out")])


def test_reversed_theta_window_exits_2_before_any_experiment(tmp_path, capsys):
    assert run_after_dichotomy(tmp_path, "theta-entropy", {"theta_n_max": 14}) == 2
    err = capsys.readouterr().err
    assert "theta-entropy" in err and "theta_n_min=16" in err and "theta_n_max=14" in err
    assert not (tmp_path / "out").exists()
    RunConfig(default_params(), ("theta-entropy",), budgets={"theta_n_min": 14, "theta_n_max": 14})


def test_two_level_weierstrass_window_exits_2_before_any_experiment(tmp_path, capsys):
    assert run_after_dichotomy(tmp_path, "weierstrass", {"w_level_max": 5}) == 2
    err = capsys.readouterr().err
    assert "weierstrass" in err and "w_level_min=4" in err and "w_level_max=5" in err
    assert not (tmp_path / "out").exists()
    RunConfig(default_params(), ("weierstrass",), budgets={"w_level_max": 6})
    RunConfig(default_params(), ("dim-estimate",), budgets={"w_level_max": 5})  # not its window


def test_separation_scales_over_the_cap_exit_2_before_the_scan(tmp_path, capsys, monkeypatch):
    # nhat(14) = 28 here: the value sets of n = 14 hold b^(28 - 4) values
    def scan(*args, **kwargs):
        raise AssertionError("the scan ran although a scale is over the cap")

    monkeypatch.setattr(cli, "exp_separation_scan", scan)
    config = tmp_path / "b2.json"
    config.write_text(json.dumps({"system": {"b": 2, "gamma": 0.7, "phi": [[1, 1.0, 0.0]]}}))
    outdir = tmp_path / "out"
    assert main(["separation-scan", "--config", str(config), "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "separation-scan" in err and "n=14" in err and "n_max" in err and "cap 4194304" in err
    assert not outdir.exists()


def test_dichotomy_depth_over_the_cap_exits_2(tmp_path, capsys):
    # 4^11 values per grid point fit the cap, 4^12 do not
    config = tmp_path / "b4.json"
    config.write_text(json.dumps({"system": {"b": 4, "gamma": 0.5, "phi": [[1, 1.0, 0.0]]}}))

    def run(depth, outdir):
        argv = ["dichotomy-check", "--config", str(config), "--outdir", str(outdir)]
        return main(argv + ["--budget", "x_grid=1", "--budget", f"word_depth={depth}"])

    assert run(11, tmp_path / "d11") == 0
    capsys.readouterr()
    assert run(12, tmp_path / "d12") == 2
    err = capsys.readouterr().err
    assert "word_depth=12" in err and str(4**12) in err and "is 11" in err
    assert not (tmp_path / "d12").exists()


def test_porosity_depth_over_the_walk_budget_exits_2_before_any_folder(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["porosity", "--outdir", str(outdir), "--budget", "porosity_depth=30"]) == 2
    err = capsys.readouterr().err
    assert "porosity_depth=30" in err and str(2**30) in err and "allowed at b=2 is 26" in err
    assert not outdir.exists()


def test_weierstrass_writes_its_summary_and_tables(tmp_path):
    outdir = tmp_path / "out"
    budgets = ["w_level_min=3", "w_level_max=5", "w_points_out=256"]
    assert main(["weierstrass", "--outdir", str(outdir)] + [a for b in budgets for a in ("--budget", b)]) == 0
    folder = outdir / "weierstrass"
    summary = dict(line.split(": ", 1) for line in (folder / "summary.txt").read_text().splitlines())
    assert {"lambda", "base", "predicted_dim", "box_slope", "terms", "resolution"} <= set(summary)
    assert summary["base"] == "2" and summary["resolution"] == str(2**5 * 64)
    boxes = (folder / "box_counts.csv").read_text().splitlines()
    assert boxes[0] == "level,boxes" and [r.split(",")[0] for r in boxes[1:]] == ["3", "4", "5"]
    points = (folder / "graph_points.csv").read_text().splitlines()
    assert points[0] == "x,y" and len(points) == 1 + 256


def test_budget_override_without_equals_exits_2_before_any_folder(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["dichotomy-check", "--outdir", str(outdir), "--budget", "word_depth"]) == 2
    assert "name=value: 'word_depth'" in capsys.readouterr().err
    assert not outdir.exists()


def test_separation_scan_at_the_int64_bound_exits_0(tmp_path):
    """ell = 63 at b = 2 draws codes below 2^63, the largest draw allowed."""
    argv = ["separation-scan", "--outdir", str(tmp_path)]
    assert main(argv + ["--budget", "ell=63", "--budget", "n_min=84", "--budget", "n_max=84"]) == 0
    rows = (tmp_path / "separation-scan" / "scan.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["84"]
