import json
import math
from pathlib import Path

import pytest

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
    assert any("delta must exceed 1/2" in d for d in diags)


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
            ("minami-probe", "beta", "x"), ("minami-probe", "gamma", [1.0]),
            ("sharpness", "delta", "big"),
            # each of these used to pass validation and then exit 1 in the run
            ("transport", "averaging", "laplace"), ("transport", "averaging", "both"),
            ("critical", "grid", 1), ("lyapunov", "steps", 1),
            ("lyapunov", "realizations", 1), ("les-poisson", "realizations", 100)]:
        diags = validate(cfg(kind, "x", params={key: value}))
        assert any(d.startswith(f"params.{key}:") for d in diags), (kind, key, diags)
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
    assert validate(cfg("transport", "x", params={"quadrature_points": 2,
                                                  "averaging": "abel"})) == []


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


def test_les_poisson_window_outside_ids_fails(tmp_path, capsys):
    # at E0 = 10 the unfolding window lies above the whole pooled IDS
    code = main(["les-poisson", "--out", str(tmp_path), "--param", "E0=10",
                 "--param", "L=200", "--param", "ids_L=200",
                 "--param", "ids_realizations=20", "--param", "realizations=500"])
    assert code == 1
    assert "E0=10" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unfolding_kinds_read_windowed_ids(tmp_path, monkeypatch):
    # les-poisson and sharpness pool only their unfolding window, by Sturm
    # counts and bisection; ids and holder-probe still pool full spectra
    from polyspec import statistics
    calls = {"pool_spectra": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(statistics, "pool_spectra",
                        counted("pool_spectra", statistics.pool_spectra))
    golden = json.loads((Path(__file__).parent / "golden_kinds.json").read_text())
    for kind, full_pool in (("les-poisson", False), ("sharpness", False),
                            ("ids", True), ("holder-probe", True)):
        calls.update(dict.fromkeys(calls, 0))
        run(cfg(kind, tmp_path, params=golden[kind]["params"], seed=5))
        assert (calls["pool_spectra"] > 0) == full_pool, (kind, calls)


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
