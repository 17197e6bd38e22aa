import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from polyspec import cli
from polyspec.cli import build_config, validate, run, main, ConfigError, KINDS
from polyspec.model import model_from_dict

# 4 x the V = 0.875 dimer: E_c = +-3.5, outside the old fixed search (-3, 3)
RESCALED_DIMER = {"plus": {"potentials": [3.5, 3.5], "hoppings": [4.0, 4.0]},
                  "minus": {"potentials": [-3.5, -3.5], "hoppings": [4.0, 4.0]},
                  "p_plus": 0.5}


def cfg(kind, out, **kw):
    raw = {"out": str(out)}
    raw.update(kw)
    return build_config(kind, raw)


def strict_summary(path):
    """Parse a summary, rejecting the NaN/Infinity tokens JSON does not allow."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_all_kinds_have_defaults():
    for kind in KINDS:
        c = build_config(kind, {})
        assert validate(c) == []


def test_validate_sharpness_delta():
    c = cfg("sharpness", "x", params={"delta": 0.4})
    diags = validate(c)
    assert any("delta: must be a finite number in (0.5, inf)" in d for d in diags)


def test_validate_bad_model_and_param():
    c = cfg("critical", "x", model={"preset": "dimer", "V": 0.5, "p": 1.0})
    assert any(d.startswith("model:") for d in validate(c))
    c2 = cfg("critical", "x", model={"preset": "bogus", "V": 0.5, "p": 0.5})
    assert any("available" in d for d in validate(c2))
    c3 = cfg("uniformity", "x", params={"nope": 1})
    assert any("unknown parameter" in d for d in validate(c3))
    with pytest.raises(ConfigError):
        build_config("frobnicate", {})
    with pytest.raises(ConfigError, match="workers"):
        build_config("lyapunov", {"workers": 4})
    # every integer size or count must be positive, and configs that used to
    # run to silent nonsense (reversed interval, one-point fit, NaN) are rejected
    for kind, key, value in [
            ("les-poisson", "ids_realizations", 0), ("les-poisson", "ids_L", -1),
            ("les-poisson", "window_atoms", 0), ("sharpness", "control_L", 0),
            ("sharpness", "control_realizations", 0), ("clock-spacing", "j_max", 0),
            ("transport", "box_radius", 0), ("transport", "quadrature_points", -5),
            ("psi-convergence", "x_points", 0), ("clock-spacing", "L_list", [0, 100]),
            ("psi-convergence", "L_list", []), ("uniformity", "realizations", "many"),
            ("minami-probe", "c2", 0.0), ("minami-probe", "c2", -1.0),
            ("transport", "T_grid", [5.0]), ("transport", "T_grid", [5.0, 5.0]),
            ("transport", "T_grid", [-5.0, 5.0]), ("transport", "free_T_grid", [20.0]),
            ("transport", "q", 0.0), ("transport", "q", -1.0),
            ("transport", "critical_window", [0.6, -0.6]),
            ("transport", "localized_window", [1.0, 1.0]),
            ("transport", "critical_window", [0.6]),
            ("transport", "localized_window", "wide"),
            ("minami-probe", "beta", "x"), ("minami-probe", "gamma", [1.0]),
            ("sharpness", "delta", "big"),
            # each of these used to pass validation and then exit 1 in the run
            ("critical", "grid", 1), ("lyapunov", "steps", 1),
            ("lyapunov", "realizations", 1), ("les-poisson", "realizations", 100),
            # a count that is not an integer used to be truncated silently
            ("lyapunov", "realizations", 2.5), ("lyapunov", "realizations", "7"),
            ("lyapunov", "realizations", True), ("clock-spacing", "L_list", [2.5, 2000]),
            ("clock-spacing", "L_list", [True, 2000])]:
        diags = validate(cfg(kind, "x", params={key: value}))
        assert any(d.startswith(f"params.{key}:") for d in diags), (kind, key, diags)
    # an integral float (JSON 1e3) is an integer; the seed must be one too
    assert validate(cfg("lyapunov", "x", params={"realizations": 1e3},
                        seed=7.0)) == []
    for seed in (2.5, "7", True):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            build_config("lyapunov", {"seed": seed})
    # a Cesàro horizon is max T itself: 2 * 45 = 0.9 * 100 is the last one allowed
    for T_max, flagged in ((45.0, False), (46.0, True)):
        diags = validate(cfg("transport", "x", params={"free_box_radius": 100,
                                                       "free_T_grid": [5.0, T_max]}))
        assert any(d.startswith("params.free_T_grid:") for d in diags) == flagged, diags
    for search in ([1.0, -1.0], [0.0], "wide"):
        diags = validate(cfg("critical", "x", params={"search": search}))
        assert any(d.startswith("params.search:") for d in diags), (search, diags)
    assert validate(cfg("critical", "x", params={"search": [-12.0, 12.0]})) == []


def test_validate_rejects_transport_quadrature_that_misses_a_time(tmp_path, capsys):
    # one quadrature point gives a Cesàro value of 0, whose log is -inf, and a
    # time below max T / (quadrature_points - 1) sees a single grid point
    for params, key in [({"quadrature_points": 1}, "quadrature_points"),
                        ({"quadrature_points": 5, "T_grid": [50.0, 400.0],
                          "free_T_grid": [25.0, 100.0]}, "T_grid"),
                        ({"quadrature_points": 5, "T_grid": [100.0, 400.0],
                          "free_T_grid": [20.0, 100.0]}, "free_T_grid")]:
        diags = validate(cfg("transport", "x", params=params))
        assert [d for d in diags if d.startswith("params.")] == [
            next(d for d in diags if d.startswith(f"params.{key}:"))], (params, diags)
        path = tmp_path / "transport.json"
        path.write_text(json.dumps({"kind": "transport", "params": params,
                                    "out": str(tmp_path)}))
        assert main(["transport", "--config", str(path)]) == 1
        assert f"params.{key}:" in capsys.readouterr().err
    # the smallest time exactly at the second grid point is allowed
    assert validate(cfg("transport", "x", params={"quadrature_points": 5,
                                                  "T_grid": [100.0, 400.0],
                                                  "free_T_grid": [25.0, 100.0]})) == []


def test_transport_averaging_is_an_unknown_parameter(tmp_path, capsys):
    # transport averages in the Cesaro sense only, so no value of averaging is
    # accepted, and the run stops before it writes anything
    want = "params.averaging: unknown parameter for kind 'transport'"
    for averaging in ("abel", "cesaro"):
        assert validate(cfg("transport", "x", params={"averaging": averaging})) == [want]
    path = tmp_path / "transport.json"
    path.write_text(json.dumps({"kind": "transport", "params": {"averaging": "abel"},
                                "out": str(tmp_path)}))
    assert main(["transport", "--config", str(path)]) == 1
    assert f"config error: {want}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_transport_q_whose_moments_overflow_is_a_config_error(tmp_path, capsys):
    # 40^1000 overflowed, and the run exited 1 with a NaN slope that JSON
    # cannot hold
    params = {"box_radius": 40, "realizations": 1, "T_grid": [2.0, 4.0],
              "quadrature_points": 20, "free_box_radius": 40, "free_T_grid": [2.0, 4.0]}

    def run_with(q, out):
        path = tmp_path / "transport.json"
        path.write_text(json.dumps({"kind": "transport", "params": {**params, "q": q},
                                    "out": str(out)}))
        return main(["transport", "--config", str(path)])

    diags = validate(cfg("transport", "x", params={**params, "q": 1000.0}))
    assert [d.split(":")[0] for d in diags] == ["params.q"], diags
    assert "must be below ln(1.8e308 / ((2 * 40 + 1) * 20)) = 702.3" in diags[0]
    assert run_with(1000.0, tmp_path) == 1
    assert capsys.readouterr().err.startswith("config error: params.q: ")
    # below the bound the moments are finite: at q = 8 the run answers, and
    # just below the bound, where the free chain's moment at T = 2 drowns in
    # its closed form's rounding, it names that
    assert run_with(8.0, tmp_path) in (0, 2)
    strict_summary(tmp_path / "transport_summary.json")
    q_max = 0.999 * (math.log(sys.float_info.max) - math.log(81 * 20)) / math.log(40)
    assert validate(cfg("transport", "x", params={**params, "q": q_max})) == []
    assert run_with(q_max, tmp_path / "edge") == 1
    assert re.match(r"error \[transport\]: ValueError: window None of realization 0 has a "
                    r"moment \S+ below 1e\+06 times its rounding error", capsys.readouterr().err)


# each of these passed validate and then exited 0 with nonsense, always
# exited 2, or exited 1 with a raw TypeError, ValueError or LinAlgError
@pytest.mark.parametrize("kind, params, key", [
    ("critical", {"tol": -1.0}, "tol"), ("lyapunov", {"energies": []}, "energies"),
    ("lyapunov", {"energies": 0.5}, "energies"),
    ("lyapunov", {"energies": [math.nan]}, "energies"), ("minami-probe", {"E0": 50}, "E0"),
    ("minami-probe", {"E0": math.nan}, "E0"),
    ("psi-convergence", {"L_list": [100], "x_points": 1}, "L_list"),
    ("les-clock", {"window_atoms": 100000, "L": 500}, "window_atoms"),
    ("les-clock", {"mean_band": [1.05, 0.95]}, "mean_band"),
    ("les-clock", {"mean_band": 5}, "mean_band"),
    ("uniformity", {"ks_threshold": -1}, "ks_threshold"),
    ("uniformity", {"ks_threshold": "abc"}, "ks_threshold"),
    ("uniformity", {"ks_threshold": math.nan}, "ks_threshold"),
    ("ids", {"branch_tolerance": -1}, "branch_tolerance"),
    ("ids", {"probe_energies": "abc"}, "probe_energies"),
    ("holder-probe", {"scales": []}, "scales"), ("les-poisson", {"E0": "abc"}, "E0"),
    ("psi-convergence", {"x_range": [5, -5]}, "x_range")])
def test_validate_names_the_key_of_a_config_that_went_wrong(tmp_path, capsys, kind, params,
                                                            key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kind": kind, "params": params, "out": str(tmp_path)}))
    assert main(["validate", "--config", str(path)]) == 1
    assert f"params.{key}: " in capsys.readouterr().out
    assert main([kind, "--config", str(path)]) == 1
    assert f"config error: params.{key}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("kind, text", [
    ("critical", '[{"kind": "critical"}]'), ("validate", '[{"kind": "critical"}]'),
    ("critical", '{"params": 5}'), ("critical", '{"params": [1]}'),
    ("validate", '{"kind": "critical", "params": [1]}'), ("validate", '{"kind": ["x"]}')])
def test_config_file_of_the_wrong_shape_is_a_config_error(tmp_path, capsys, kind, text):
    # each of these used to escape main as a traceback
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main([kind, "--config", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


def test_critical_tol_below_roundoff_is_a_config_error(tmp_path, capsys):
    # the refined commutator norm at E_c is 1.0-1.6e-14 x s on the V = 0.875
    # dimer scaled by s: tol 1e-14 at s = 1 and the default 1e-9 at s = 1e5
    # used to give count 0 and exit 0
    for s, tol in ((1.0, 1e-14), (1e5, 1e-9)):
        model = {side: {"potentials": [sign * 0.875 * s] * 2, "hoppings": [s, s]}
                 for side, sign in (("plus", 1.0), ("minus", -1.0))}
        path = tmp_path / "critical.json"
        path.write_text(json.dumps({"model": dict(model, p_plus=0.5),
                                    "params": {"tol": tol}, "out": str(tmp_path)}))
        assert main(["critical", "--config", str(path)]) == 1
        assert f"config error: params.tol: tol={tol!r} is below " in capsys.readouterr().err
        assert validate(cfg("critical", "x", model=dict(model, p_plus=0.5),
                            params={"tol": 1e-7})) == []


@pytest.mark.parametrize("entry", ["potentials", "hoppings", "p_plus"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validate_rejects_nonfinite_model_entry(tmp_path, capsys, entry, value):
    # Python's json reads NaN and +-Infinity; validate names the model entry
    # before any kind runs on it
    model = json.loads(json.dumps(RESCALED_DIMER))
    if entry == "p_plus":
        model["p_plus"] = value
    else:
        model["minus"][entry][1] = value
    for kind in ("ids", "minami-probe", "lyapunov"):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"kind": kind, "model": model, "out": str(tmp_path)}))
        assert main(["validate", "--config", str(path)]) == 1
        assert "model: " in capsys.readouterr().out
        assert main([kind, "--config", str(path)]) == 1
        assert "config error: model: " in capsys.readouterr().err


def test_run_critical_writes_outputs(tmp_path):
    c = cfg("critical", tmp_path, params={"grid": 4001})
    report = run(c)
    assert report.passed
    summary = json.loads((tmp_path / "critical_summary.json").read_text())
    assert summary["config_hash"] == report.config_hash
    assert summary["pass"] is True
    assert len(summary["statistics"]["reports"]) == 2
    csv = (tmp_path / "critical_critical_energies.csv").read_text().splitlines()
    assert csv[0] == f"# config_hash={report.config_hash}"
    assert csv[1].startswith("energy,")
    assert len(csv) == 4  # comment + header + two critical energies


def test_run_invalid_config_raises(tmp_path):
    c = cfg("sharpness", tmp_path, params={"delta": 0.3})
    with pytest.raises(ConfigError):
        run(c)


def test_rerun_byte_identical(tmp_path):
    params = {"params": {"energies": [0.5], "steps": 2000, "realizations": 6}}
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        c = build_config("lyapunov", {**params, "out": str(out)})
        run(c)
        texts.append((out / "lyapunov_lyapunov.csv").read_text()
                     + (out / "lyapunov_summary.json").read_text())
    assert texts[0] == texts[1]


def test_les_clock_irrationality_warning(tmp_path):
    # eta gap of pi/2 violates the uniform-clock condition at k = 4;
    # the run records a warning and proceeds
    c = build_config("les-clock", {
        "model": {"preset": "dimer", "V": 0.7071067811865476, "p": 0.5},
        "params": {"L": 1500, "realizations": 30, "window_atoms": 6},
        "out": str(tmp_path)})
    with pytest.warns(UserWarning, match="irrationality"):
        report = run(c)
    assert report.statistics["irrationality_violations"]


def test_main_exit_codes(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"params": {"grid": 4001},
                                   "out": str(tmp_path / "o")}))
    assert main(["critical", "--config", str(cfgfile)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"params": {"delta": 0.1}, "out": str(tmp_path)}))
    assert main(["sharpness", "--config", str(bad)]) == 1
    assert main(["validate", "--config", str(bad)]) == 1
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"kind": "critical", "out": str(tmp_path)}))
    assert main(["validate", "--config", str(ok)]) == 0
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"kind": "critical", "workers": 4}))
    assert main(["validate", "--config", str(stale)]) == 1


def test_minami_without_hits_writes_null_ratio(tmp_path):
    code = main(["minami-probe", "--out", str(tmp_path), "--param", "L=100",
                 "--param", "c2=1e-6", "--param", "realizations=50"])
    assert code == 0
    stats = strict_summary(tmp_path / "minami_probe_summary.json")["statistics"]
    assert stats["p_ge1"] == 0.0
    assert stats["ratio_p2_over_p1sq"] is None


def test_clock_spacing_without_gaps_writes_null(tmp_path):
    # a 2-site box has one gap around E_c, so its variance is undefined
    code = main(["clock-spacing", "--out", str(tmp_path), "--param", "L_list=[2, 4]",
                 "--param", "realizations=1", "--param", "j_max=1"])
    assert code == 2
    summary = strict_summary(tmp_path / "clock_spacing_summary.json")
    assert summary["statistics"]["per_size"]["2"]["num_gaps"] == 1
    assert summary["statistics"]["per_size"]["2"]["variance"] is None
    assert summary["passes"]["variance_decreasing"] is False


def test_unserializable_summary_writes_nothing(tmp_path, monkeypatch):
    def nan_experiment(model, params, seed):
        return {"x": float("nan")}, {}, {"t": (["a"], [(1,)])}

    monkeypatch.setitem(cli._EXPERIMENTS, "lyapunov", nan_experiment)
    assert main(["lyapunov", "--out", str(tmp_path)]) == 1
    assert list(tmp_path.iterdir()) == []


def test_transport_window_without_eigenvalues_fails(tmp_path, capsys):
    # a valid window above the whole spectrum keeps no mode: the run names
    # the window and the realization instead of writing a NaN slope
    code = main(["transport", "--out", str(tmp_path), "--param", "box_radius=50",
                 "--param", "localized_window=[5.0, 6.0]", "--param", "realizations=1",
                 "--param", "T_grid=[2.0, 4.0]", "--param", "quadrature_points=20",
                 "--param", "free_box_radius=50", "--param", "free_T_grid=[2.0, 4.0]"])
    assert code == 1
    assert ("error [transport]: ValueError: window (5.0, 6.0) holds no eigenvalue "
            "of realization 0") in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_les_poisson_rejects_bad_count_intervals(tmp_path, capsys):
    # an empty list used to exit 1 with a raw IndexError, a reversed or
    # overlapping pair with a ValueError from the run; validate names the key
    for intervals in ("[]", "[[0.5, -0.5]]", "[[0.5, 0.5]]", "[[-0.5, 0.5], [0.25, 1.0]]",
                      "[0.5, 1.0]"):
        code = main(["les-poisson", "--out", str(tmp_path), "--param",
                     f"count_intervals={intervals}"])
        assert code == 1, intervals
        err = capsys.readouterr().err
        assert "config error: params.count_intervals: " in err, (intervals, err)
        assert list(tmp_path.iterdir()) == []
    # intervals that only touch, in any order, are disjoint
    assert validate(cfg("les-poisson", "x", params={"count_intervals": [[1.0, 2.0],
                                                                        [0.0, 1.0]]})) == []


def test_les_poisson_window_outside_ids_fails(tmp_path, capsys):
    # at E0 = 10 the unfolding window lies above the whole pooled IDS
    code = main(["les-poisson", "--out", str(tmp_path), "--param", "E0=10",
                 "--param", "L=200", "--param", "ids_L=200",
                 "--param", "ids_realizations=20", "--param", "realizations=500"])
    assert code == 1
    assert "E0=10" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_no_kind_stores_its_whole_pool(tmp_path, monkeypatch):
    # les-poisson, sharpness and holder-probe store the ranks near N on the
    # span they read (windowed_ids), and ids only the neighbours of the
    # energies it reads (pointwise_ids): each store holds fewer eigenvalues
    # than the pool it interpolates
    stores = []

    def recorded(original):
        def wrapper(*args, **kwargs):
            stores.append(original(*args, **kwargs))
            return stores[-1]
        return wrapper

    for name in ("windowed_ids", "pointwise_ids"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    golden = json.loads((Path(__file__).parent / "golden_kinds.json").read_text())
    for kind in ("les-poisson", "sharpness", "ids", "holder-probe"):
        stores.clear()
        run(cfg(kind, tmp_path, params=golden[kind]["params"], seed=5))
        assert stores, kind
        assert all(ids.pooled.size < ids.total_count for ids in stores), (
            kind, [(ids.pooled.size, ids.total_count) for ids in stores])


def test_ids_extra_probe_writes_null_formula(tmp_path):
    code = main(["ids", "--out", str(tmp_path), "--param", "probe_energies=[0.1]",
                 "--param", "L_ids=100", "--param", "realizations=4"])
    assert code in (0, 2)
    probes = strict_summary(tmp_path / "ids_summary.json")["statistics"]["probes"]
    assert probes[-1]["energy"] == 0.1
    assert probes[-1]["formula"] is None


def test_ids_checks_symmetry_only_for_a_symmetric_law(tmp_path):
    # N(E) + N(-E) = 1 needs a disorder law invariant under v -> -v; at
    # p_plus = 1/2 this one is not, and its symmetry error is about 0.1
    model = {"plus": {"potentials": [0.6, 0.1], "hoppings": [1.0, 1.0]},
             "minus": {"potentials": [-0.3], "hoppings": [1.0]}, "p_plus": 0.5}
    report = run(cfg("ids", tmp_path, model=model, seed=5,
                     params={"L_ids": 400, "realizations": 40}))
    summary = strict_summary(Path(report.files[-1]))
    assert "symmetry" not in summary["passes"]
    assert summary["statistics"]["symmetry_error"] > 0.05
    mirrored = dict(model, minus={"potentials": [-0.6, -0.1], "hoppings": [1.0, 1.0]})
    for d, symmetric in ((model, False), (mirrored, True), (dict(mirrored, p_plus=0.4), False),
                         ({"preset": "dimer", "V": 0.6, "p": 0.5}, True),
                         ({"preset": "anderson", "V": 0.0, "p": 0.3}, True),
                         ({"preset": "anderson", "V": 0.5, "p": 0.3}, False)):
        assert cli._symmetric_law(model_from_dict(d)) is symmetric, d


def test_main_param_override(tmp_path, capsys):
    code = main(["lyapunov", "--out", str(tmp_path), "--seed", "3",
                 "--param", "energies=[0.9]", "--param", "steps=1500",
                 "--param", "realizations=4"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    summary = json.loads((tmp_path / "lyapunov_summary.json").read_text())
    assert summary["config"]["params"]["steps"] == 1500
    assert summary["config"]["seed"] == 3
    assert "0.9" in summary["statistics"]


def test_lyapunov_short_run_is_finite(tmp_path, capsys):
    # with steps <= 1024 the second half starts at steps // 2, not at steps
    code = main(["lyapunov", "--out", str(tmp_path), "--param", "steps=1000",
                 "--param", "realizations=4"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    stats = strict_summary(tmp_path / "lyapunov_summary.json")["statistics"]
    assert set(stats) == {"0.5", "0.8"}
    assert all(math.isfinite(s["gamma"]) and math.isfinite(s["stderr"])
               for s in stats.values())


def test_critical_search_covers_rescaled_dimer(tmp_path):
    report = cli._single_report(model_from_dict(RESCALED_DIMER))
    assert report.energy == pytest.approx(3.5, abs=1e-8)
    run_report = run(cfg("critical", tmp_path, model=RESCALED_DIMER))
    energies = [r["energy"] for r in run_report.statistics["reports"]]
    assert energies == pytest.approx([-3.5, 3.5], abs=1e-8)


# --------------------------------------------------------------------------
# every config the table accepts ends in an answer or a named error

# sizes at which each kind runs in milliseconds; a drawn value overrides them
TINY = {
    "critical": {"grid": 201},
    "lyapunov": {"steps": 64, "realizations": 2},
    "ids": {"L_ids": 40, "realizations": 4},
    "les-poisson": {"L": 40, "realizations": 500, "window_atoms": 4, "ids_L": 40,
                    "ids_realizations": 4},
    "les-clock": {"L": 60, "realizations": 20, "window_atoms": 4},
    "clock-spacing": {"L_list": [40, 80], "realizations": 4, "j_max": 3},
    "uniformity": {"L": 40, "realizations": 20},
    "psi-convergence": {"L_list": [40, 80], "realizations": 2, "x_points": 11},
    "sharpness": {"L": 200, "realizations": 10, "j_max": 4, "control_L": 100,
                  "control_realizations": 20, "control_window_atoms": 4, "ids_L": 100,
                  "ids_realizations": 4},
    "minami-probe": {"L": 100, "realizations": 20},
    "holder-probe": {"ids_L": 40, "ids_realizations": 4},
    "transport": {"box_radius": 40, "realizations": 1, "T_grid": [2.0, 4.0],
                  "quadrature_points": 20, "free_box_radius": 40, "free_T_grid": [2.0, 4.0]},
}

# (exception name, message part) of the runtime errors the library raises on purpose
NAMED_ERRORS = [("InsufficientDataError", ""), ("ValueError", "leaves the pooled IDS"),
                ("ValueError", "holds no eigenvalue"), ("BoundaryContaminationError", "")]

GOLDEN_PASSES = {kind: set(entry["passes"]) for kind, entry in json.loads(
    (Path(__file__).parent / "golden_kinds.json").read_text()).items()}


# the values whose edges are drawn for the parameters that default to null
NULL_STAND_INS = {"search": [-3.0, 3.0], "probe_energies": [0.1]}


def base_value(kind, key):
    default = build_config(kind, {}).params[key]
    return TINY[kind].get(key, NULL_STAND_INS[key] if default is None else default)


def entry_values(p, base):
    """(accepted, rejected) single entries at the edges of a declaration."""
    if p.shape == "int":
        return [p.low, float(p.low)], [p.low - 1, p.low + 0.5, True, "7"]
    if p.shape == "pair":
        lo, hi = base
        return ([[lo, hi], [lo, math.nextafter(lo, math.inf)]],
                [[lo, lo], [hi, lo], [lo], [lo, math.nan], [-math.inf, hi], "wide"])
    accepted, rejected = [], [math.nan, math.inf, -math.inf, "abc", True]
    for end, inward, is_open in ((p.low, math.inf, p.ends[0] == "("),
                                 (p.high, -math.inf, p.ends[1] == ")")):
        if math.isfinite(end):
            inside, outside = ((math.nextafter(end, inward), end) if is_open else
                               (end, math.nextafter(end, -inward)))
            accepted.append(inside)
            rejected.append(outside)
    return accepted or [0.0], rejected


def declared_values(p, base):
    """(accepted, rejected) values at the edges of a declaration, from the
    table alone: the least count, the range ends, a pair with lo = hi, lists
    of the least length, and NaN, infinities, strings, scalars for lists."""
    if p.items is None:
        accepted, rejected = entry_values(p, base)
    else:
        entries, wrong = entry_values(p, base[0])
        accepted = [base[:p.items]] if p.items == 0 else [
            [e, *base[1:p.items]] for e in entries
            if not (p.distinct and float(e) in map(float, base[1:p.items]))]
        rejected = [[w, *base[1:p.items]] for w in wrong] + [base[0], "abc"]
        if p.items:
            rejected.append(base[:p.items - 1])
        if p.distinct:
            rejected.append([base[0]] * p.items)
    if p.default is None:
        return accepted + [None], rejected
    return accepted, rejected + [None]


def single_overrides():
    for kind in KINDS:
        for key, p in cli._KIND_TABLE[kind].items():
            for value in sum(declared_values(p, base_value(kind, key)), []):
                yield kind, {key: value}


@st.composite
def overrides(draw):
    """A kind and 1-3 of its parameters, each set to an edge or a wrong value."""
    kind = draw(st.sampled_from(KINDS))
    table = cli._KIND_TABLE[kind]
    keys = draw(st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=3,
                         unique=True))
    return kind, {key: draw(st.sampled_from(sum(declared_values(
        table[key], base_value(kind, key)), []))) for key in keys}


def ends_in_an_answer_or_a_named_error(kind, drawn):
    """Run the kind at TINY sizes under the drawn values through main; it must
    exit 0 or 2 with its flags in strict JSON, or 1 naming a drawn key (or a
    key a cross-field rule reads with one) or an error the library raises on
    purpose."""
    reported = set(drawn)
    for keys, _ in cli._RULES.get(kind, ()):
        if reported & set(keys):
            reported.add(keys[0])
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "config.json"
        path.write_text(json.dumps({"params": {**TINY[kind], **drawn}, "seed": 5,
                                    "out": out}))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([kind, "--config", str(path)])
        err = stderr.getvalue()
        if code in (0, 2):
            prefix = kind.replace("-", "_")
            summary = strict_summary(Path(out) / f"{prefix}_summary.json")
            assert set(summary["passes"]) == GOLDEN_PASSES[kind], (kind, drawn, summary)
            return
    assert code == 1, (kind, drawn, code, err)
    if err.startswith("config error: "):
        named = re.findall(r"(?:^config error: |; )(\w+(?:\.\w+)?):", err)
        assert err == "config error: model has no critical energy\n" or named and all(
            name in {f"params.{k}" for k in reported} for name in named), (kind, drawn, err)
        return
    assert any(err.startswith(f"error [{kind}]: {name}: ") and part in err
               for name, part in NAMED_ERRORS), (kind, drawn, err)


def _with_every_single_override(test):
    for kind, drawn in single_overrides():
        test = example(case=(kind, drawn))(test)
    return test


@settings(max_examples=40)
@given(case=overrides())
@_with_every_single_override
def test_every_accepted_config_ends_in_an_answer_or_a_named_error(case):
    ends_in_an_answer_or_a_named_error(*case)
