import ast
import csv
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ringwave import _schema, cli, spectrum, stability
from ringwave.cli import _config_schema, main
from ringwave.errors import ConfigError
from ringwave.spectrum import Fleet, count_right_of, rightmost_eigenvalue
from ringwave.stability import ABSCISSA_TOL

from conftest import REF_D0, REF_HEADWAY, REF_LV, REF_SLOPE, single_class_spectrum
from oracle import grid_ratio

CAL_PREF = {
    "calibrate": {"h_ref": REF_HEADWAY, "slope": REF_SLOPE, "l_v": REF_LV, "d0": REF_D0}
}
MODEL_1 = {"kind": "bando_ftl", "a": 4.0, "b": 20.0, "preference": CAL_PREF}
MODEL_2 = {"kind": "bando_ftl", "a": 0.5, "b": 20.0, "preference": CAL_PREF}
EQ_BY_HEADWAY = {"class_headway": {"class_id": 1, "headway": REF_HEADWAY}}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    return rows[0], rows[1:]


def composition_payload(c1, c2, ordering="spread"):
    return {
        "populations": [
            {"class_id": 1, "count": c1, "model": MODEL_1},
            {"class_id": 2, "count": c2, "model": MODEL_2},
        ],
        "ordering": ordering,
    }


def test_equilibrium_command_reference(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "composition": composition_payload(441, 59),
            "equilibrium": EQ_BY_HEADWAY,
        },
    )
    assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "equilibrium.csv")
    assert header == ["class_id", "h_bar_m", "v_bar_mps", "L_m"]
    assert len(rows) == 2
    for row in rows:
        assert float(row[1]) == pytest.approx(REF_HEADWAY, abs=1e-9)
        assert float(row[3]) == pytest.approx(5200.0, abs=1e-6)


def test_equilibrium_round_trip_through_csv(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "composition": composition_payload(5, 3),
            "equilibrium": {"v_bar": 4.2},
        },
    )
    assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "equilibrium.csv")
    from ringwave.cli import _build_composition, _resolve_equilibrium

    comp = _build_composition(composition_payload(5, 3))
    eq = _resolve_equilibrium({"v_bar": 4.2}, comp)
    by_class = {int(r[0]): r for r in rows}
    for cid in (1, 2):
        assert float(by_class[cid][1]) == eq.h_bar[cid]
        assert float(by_class[cid][2]) == eq.v_bar
        assert float(by_class[cid][3]) == eq.length


def test_missing_model_parameters_exit_2(tmp_path):
    payload = {
        "schema_version": 1,
        "composition": {
            "populations": [
                {"class_id": 1, "count": 2, "model": {"kind": "bando_ftl", "a": 4.0}}
            ],
            "ordering": "blocks",
        },
        "equilibrium": {"v_bar": 4.0},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_unknown_keys_rejected(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "composition": composition_payload(2, 2),
            "equilibrium": {"v_bar": 4.0},
            "surprise": True,
        },
    )
    assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_infeasible_length_exits_3(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "composition": composition_payload(3, 2),
            "equilibrium": {"length": 1.0},
        },
    )
    assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_deterministic_rerun_is_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "composition": composition_payload(4, 2),
            "equilibrium": {"v_bar": 4.0},
        },
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert (
            main(["equilibrium", "--config", cfg, "--out", str(out), "--deterministic"])
            == 0
        )
    assert (out_a / "equilibrium.csv").read_bytes() == (out_b / "equilibrium.csv").read_bytes()
    assert b"# generated" not in (out_a / "equilibrium.csv").read_bytes()


@pytest.mark.parametrize("command", ["equilibrium", "tau0"])
def test_unknown_class_headway_exits_2(tmp_path, command, capsys):
    eq = {"class_headway": {"class_id": 7, "headway": REF_HEADWAY}}
    if command == "equilibrium":
        payload = {"schema_version": 1, "composition": composition_payload(5, 3), "equilibrium": eq}
    else:
        payload = dict(tau0_payload(), equilibrium=eq)
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown class 7" in capsys.readouterr().err


def test_linearize_command(tmp_path, ref_trios):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "composition": composition_payload(3, 2),
            "equilibrium": EQ_BY_HEADWAY,
        },
    )
    assert main(["linearize", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "linearize.csv")
    assert header == ["class_id", "alpha_1ps2", "beta_1ps", "gamma_1ps", "delta_1ps2", "classification"]
    t1, t2 = ref_trios
    by_class = {int(r[0]): r for r in rows}
    assert float(by_class[1][4]) == pytest.approx(7.28, abs=0.01)
    assert by_class[1][5] == "stable"
    assert float(by_class[2][4]) == pytest.approx(-0.84, abs=0.01)
    assert by_class[2][5] == "unstable"


def tau0_payload(swap=False):
    pops = [
        {"class_id": 1, "model": MODEL_1},
        {"class_id": 2, "model": MODEL_2},
    ]
    if swap:
        pops = pops[::-1]
    return {"schema_version": 1, "populations": pops, "equilibrium": EQ_BY_HEADWAY}


def test_tau0_command_reference(tmp_path, capsys):
    cfg = write_config(tmp_path, tau0_payload())
    assert main(["tau0", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "tau0 = 0.88" in out
    header, rows = read_csv(tmp_path / "tau0.csv")
    assert header == ["delta1", "delta2", "gamma_sq", "n0", "tau0", "bound_lower", "bound_upper"]
    tau0 = float(rows[0][4])
    assert tau0 == pytest.approx(0.881, abs=0.002)
    assert float(rows[0][5]) <= tau0 <= float(rows[0][6])


def test_tau0_command_detects_roles_after_swap(tmp_path):
    cfg_a = write_config(tmp_path, tau0_payload(), name="a.json")
    cfg_b = write_config(tmp_path, tau0_payload(swap=True), name="b.json")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["tau0", "--config", cfg_a, "--out", str(out_a), "--deterministic"]) == 0
    assert main(["tau0", "--config", cfg_b, "--out", str(out_b), "--deterministic"]) == 0
    assert (out_a / "tau0.csv").read_bytes() == (out_b / "tau0.csv").read_bytes()


def test_tau0_command_both_stable(tmp_path, capsys):
    payload = tau0_payload()
    payload["populations"][1]["model"] = dict(MODEL_1)
    cfg = write_config(tmp_path, payload)
    assert main(["tau0", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "stable for all counts" in out
    assert "tau0 =" not in out
    assert not (tmp_path / "tau0.csv").exists()


def test_tau0_command_both_unstable(tmp_path, capsys):
    payload = tau0_payload()
    payload["populations"][0]["model"] = dict(MODEL_2, a=1.0)
    cfg = write_config(tmp_path, payload)
    assert main(["tau0", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "verdict: unstable for sufficiently many vehicles" in out
    assert "tau0 =" not in out
    assert not (tmp_path / "tau0.csv").exists()


def test_tau0_command_off_the_certificate_matches_the_grid_oracle(tmp_path, monkeypatch):
    # seed 1's design_scan pair 1 to four digits: its ratio peaks inside (0, Gamma^2], not at y -> 0
    pref = {"calibrate": {"h_ref": 10.4, "slope": 1.297, "l_v": 4.653, "d0": 2.354}}
    payload = {
        "schema_version": 1,
        "populations": [
            {"class_id": 1, "model": {"kind": "bando_ftl", "a": 4.857, "b": 20.89, "preference": pref}},
            {"class_id": 2, "model": {"kind": "bando_ftl", "a": 0.3173, "b": 17.43, "preference": pref}},
        ],
        "equilibrium": {"class_headway": {"class_id": 1, "headway": 10.1}},
    }
    calls, sup = [], stability._margin_sup
    monkeypatch.setattr(stability, "_margin_sup", lambda *a: calls.append(1) or sup(*a))
    assert main(["tau0", "--config", write_config(tmp_path, payload), "--out", str(tmp_path), "--deterministic"]) == 0
    assert len(calls) > 1
    header, rows = read_csv(tmp_path / "tau0.csv")
    row = dict(zip(header, map(float, rows[0])))
    pops = cli._build_populations(payload["populations"])
    stable, unstable = cli._trios_at(pops, cli._resolve_v_bar(payload["equilibrium"], pops))
    want, tol = grid_ratio(stable, [unstable], [1.0])
    assert want - tol <= row["n0"] <= want + tol
    assert row["tau0"] == row["n0"] / (row["n0"] + 1.0) > row["bound_lower"]


def test_margin_command(tmp_path):
    payload = {
        "schema_version": 1,
        "populations": [
            {"class_id": 1, "count": 802, "model": MODEL_1},
            {"class_id": 2, "count": 198, "model": MODEL_2},
        ],
        "equilibrium": EQ_BY_HEADWAY,
        "svg": True,
    }
    cfg = write_config(tmp_path, payload)
    assert main(["margin", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "margin.csv")
    assert header == ["sup_margin", "argmax_y_1ps2", "verdict"]
    assert rows[0][2] == "unstable_for_large_n"
    assert float(rows[0][0]) > 0
    assert (tmp_path / "margin.svg").exists()
    assert (tmp_path / "margin_curve.csv").exists()


def test_spectrum_command(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "composition": composition_payload(16, 4),
            "equilibrium": EQ_BY_HEADWAY,
        },
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == ["re_1ps", "im_1ps"]
    assert len(rows) == 2 * 20 - 1


@pytest.mark.parametrize("c1, c2, headway", [(80, 20, 20.0), (8, 2, 37.0), (80, 20, 18.0)])
def test_spectrum_near_free_flow(tmp_path, c1, c2, headway):
    # eigenvalues crowd the origin and the zeros of F here: accurate ones read
    # |F(lambda) - 1| up to 5e-5, and a tolerance on |lambda| finds 10 zeros at 37 m;
    # at 18 m 20 of them circle a 20-fold pole of F at radius 9.2e-15
    composition = composition_payload(c1, c2)
    for pop in composition["populations"]:
        pop["model"] = {**pop["model"], "preference": {"v_max": 30.0, "l_v": 4.5, "d0": 2.23}}
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "composition": composition,
            "equilibrium": {"class_headway": {"class_id": 1, "headway": headway}},
        },
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) == 2 * (c1 + c2) - 1


@pytest.mark.parametrize("c1, c2", [(98, 2), (390, 10)])
def test_spectrum_with_a_small_minority_class(tmp_path, c1, c2):
    # at 390 + 10 the minority's 10-fold zero of F has 10 eigenvalues 2e-8 from it, where
    # log F written as sum n_k log(1 + u_k) cancelled, so root_error refused them all
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "composition": composition_payload(c1, c2),
            "equilibrium": EQ_BY_HEADWAY,
        },
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) == 2 * (c1 + c2) - 1


def test_spectrum_of_a_block_ordered_ring_is_solved_from_its_counts(tmp_path):
    # dense eigvals on the block-ordered 800-vehicle reference ring reads abscissa
    # 0.031 and misses F = 1 at 1437 of 1599 values; the counts fix it at 0.015896
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "composition": composition_payload(640, 160, ordering="blocks"),
            "equilibrium": EQ_BY_HEADWAY,
        },
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) == 2 * 800 - 1
    assert max(float(re) for re, _ in rows) == pytest.approx(0.015896, abs=1e-6)


def test_spectrum_of_a_shuffled_ring_equals_the_spread_one(tmp_path):
    # the spectrum depends only on the class counts, so the ordering key leaves it alone
    ordering = [1] * 320 + [2] * 80
    random.Random(1).shuffle(ordering)
    csvs = []
    for name, order in (("shuffled", ordering), ("spread", "spread")):
        out = tmp_path / name
        cfg = {
            "schema_version": 1,
            "composition": composition_payload(320, 80, ordering=order),
            "equilibrium": EQ_BY_HEADWAY,
        }
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--out", str(out), "--deterministic"]) == 0
        csvs.append((out / "spectrum.csv").read_bytes())
    assert csvs[0] == csvs[1]
    assert csvs[0].count(b"\n") == 1 + 2 * 400 - 1


def _nudged(solve):
    """``solve`` with its first eigenvalue moved off its root."""

    def nudged(arg):
        report = solve(arg)
        report.eigenvalues[0] *= 1.0 + 1e-3
        return report

    return nudged


SMALL_BLOCKS = {
    "schema_version": 1,
    "composition": composition_payload(16, 4, ordering="blocks"),
    "equilibrium": EQ_BY_HEADWAY,
}


def test_spectrum_refuses_a_value_off_its_root(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spectrum, "_class_count_spectrum", _nudged(spectrum._class_count_spectrum))
    cfg = write_config(tmp_path, SMALL_BLOCKS)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "1 of 39 miss F(lambda) = 1" in err
    assert "ordering" not in err and "spread" not in err
    assert not (tmp_path / "spectrum.csv").exists()


def test_spectrum_gives_up_a_line_that_no_grid_resolves(tmp_path, monkeypatch):
    # v_max = 1e300 makes alpha 3.9e296; the phase along Re(lambda) = alpha / 2 stays
    # unresolved however fine the grid, and refining it fourfold a round once ran out of memory
    real_log_factors = spectrum._log_factors

    def capped(fleet, lam):
        assert lam.size <= spectrum._BLOCK_POINTS
        return real_log_factors(fleet, lam)

    monkeypatch.setattr(spectrum, "_log_factors", capped)
    pref = {"v_max": 1e300, "l_v": 0.85, "d0": 1000}
    model = {"kind": "bando_ftl", "a": 10.4, "b": 21.1, "preference": pref}
    eq = {"class_headway": {"class_id": 1, "headway": 17.0}}
    payload = {
        "schema_version": 1,
        "populations": [{"class_id": 1, "model": model}, {"class_id": 2, "model": model}],
        "equilibrium": eq,
        "sweep": {"n_totals": [6], "rate_class1": 1.0},
    }
    pops = cli._build_populations(payload["populations"])
    trio = cli._trios_at(pops, cli._resolve_v_bar(eq, pops))[0]
    start = time.perf_counter()
    with pytest.raises(FloatingPointError, match="could not be resolved"):
        count_right_of(Fleet([trio], [6]), trio.alpha / 2)
    assert time.perf_counter() - start < 10.0
    # every root lies inside the structural zero's gap, 2 pi 1e-6 / |F'(0)|, so Newton finds no
    # top; the sweep takes the class-count spectrum's, certified by its two counts
    start = time.perf_counter()
    assert main(["sweep", "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 10.0
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert float(rows[0][2]) == pytest.approx(single_class_spectrum(trio, 6).real.max(), rel=1e-12)
    # one of the 11 values is missing, so the full spectrum is refused
    payload = {
        "schema_version": 1,
        "composition": {"populations": [{"class_id": 1, "count": 6, "model": model}], "ordering": "spread"},
        "equilibrium": eq,
    }
    assert main(["spectrum", "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]) == 4


def _top_pair_moved(solve):
    """``solve`` with its rightmost conjugate pair moved right by ``1e-8 |lambda|``."""

    def moved(fleet):
        report = solve(fleet)
        lam = report.eigenvalues
        top = np.flatnonzero(lam.real == report.abscissa)
        lam[top] += 1e-8 * np.abs(lam[top])
        return spectrum.SpectrumReport(eigenvalues=lam, abscissa=float(lam.real.max()))

    return moved


def test_spectrum_counts_the_abscissa_it_writes(tmp_path, capsys, monkeypatch):
    # each moved value still passes root_error and coincident; only the counts see the abscissa move
    fleet_of = []
    solve = spectrum._class_count_spectrum
    moved = _top_pair_moved(lambda fleet: fleet_of.append(fleet) or solve(fleet))
    monkeypatch.setattr(spectrum, "_class_count_spectrum", moved)
    cfg = write_config(tmp_path, SMALL_BLOCKS)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path), "--deterministic"]) == 4
    assert "abscissa " in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()
    (fleet,) = fleet_of
    report = moved(fleet)
    lam, err = report.eigenvalues, fleet.root_error(report.eigenvalues)
    assert (lam.real == report.abscissa).sum() == 2 and (err < 1e-6 * np.abs(lam)).all()
    assert not spectrum.coincident(lam, err).any()
    assert spectrum.misfit(fleet, report).startswith("abscissa ")


def test_cli_imports_no_private_name():
    # the CLI reaches the library only through its public names
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_spectrum_of_one_vehicle_is_gamma_minus_beta(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "composition": composition_payload(1, 0),
            "equilibrium": EQ_BY_HEADWAY,
        },
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    # gamma - beta = -a for this law
    assert len(rows) == 1 and float(rows[0][0]) == pytest.approx(-4.0, rel=1e-12) and rows[0][1] == "0.0"
    assert capsys.readouterr().out.startswith("n = 1: abscissa = -")


def test_spectrum_is_conjugate_closed_with_real_values_on_the_axis(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "composition": composition_payload(80, 20),
            "equilibrium": EQ_BY_HEADWAY,
        },
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    lam = np.array([complex(float(re), float(im)) for re, im in rows])
    assert lam.size == 199
    np.testing.assert_array_equal(np.sort_complex(lam.conj()), lam)
    real = [im for _, im in rows if float(im) == 0.0]
    assert real and set(real) == {"0.0"}


def test_simulate_command_stable_envelope(tmp_path):
    payload = {
        "schema_version": 1,
        "composition": composition_payload(45, 5),
        "equilibrium": EQ_BY_HEADWAY,
        "sim": {
            "dt": 0.05,
            "t_end": 120.0,
            "record_every": 40,
            "perturbation": {"amplitude": 1e-3, "kind": "sinusoidal_mode", "mode": 20},
        },
        "svg": True,
    }
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "trace.csv")
    assert header == ["t_s", "speed_variance_mps2", "min_headway_m", "max_headway_m"]
    var = [float(r[1]) for r in rows]
    assert var[-1] < var[0]
    assert (tmp_path / "trace.svg").exists()


@pytest.mark.parametrize("mode", [0, 5, 10])
def test_simulate_refuses_a_mode_that_perturbs_no_vehicle(tmp_path, capsys, mode):
    cfg = valid_config("simulate")
    cfg["composition"] = composition_payload(8, 2)
    cfg["sim"]["perturbation"] = {"amplitude": 0.1, "kind": "sinusoidal_mode", "mode": mode}
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: $.sim.perturbation.mode: ") and f"mode {mode} perturbs no vehicle" in err, err
    assert not (tmp_path / "trace.csv").exists()


# each perturbation kind, with a parameter that belongs to another kind
STRAY_PARAMETERS = [
    ("single_vehicle_kick", "mode"),
    ("single_vehicle_kick", "seed"),
    ("sinusoidal_mode", "seed"),
    ("seeded_random_zero_sum", "mode"),
]


@pytest.mark.parametrize("kind, key", STRAY_PARAMETERS)
def test_simulate_refuses_another_kinds_parameter(tmp_path, capsys, kind, key):
    cfg = valid_config("simulate")
    cfg["sim"]["perturbation"] = {"amplitude": 1e-3, "kind": kind, key: 3}
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: $.sim.perturbation: ") and repr(key) in err, err
    assert not (tmp_path / "trace.csv").exists()


def test_simulate_collision_at_the_start_is_a_domain_error(tmp_path, capsys):
    payload = {
        "schema_version": 1,
        "composition": composition_payload(8, 2),
        "equilibrium": EQ_BY_HEADWAY,
        "sim": {"t_end": 1.0, "perturbation": {"amplitude": 50.0, "kind": "seeded_random_zero_sum", "seed": 3}},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and "collision at t = 0" in err


def test_programming_error_is_no_domain_error(tmp_path, capsys, monkeypatch):
    def broken(config, out, deterministic):
        raise ValueError("a bug")

    monkeypatch.setitem(cli._COMMANDS, "equilibrium", broken)
    cfg = write_config(
        tmp_path,
        {"schema_version": 1, "composition": composition_payload(5, 3), "equilibrium": {"v_bar": 4.2}},
    )
    with pytest.raises(ValueError, match="a bug"):
        main(["equilibrium", "--config", cfg, "--out", str(tmp_path)])
    assert "domain error" not in capsys.readouterr().err


@pytest.mark.parametrize("t_end, dt, record_every, last", [(0.07, 0.05, 20, 0.05), (40.0, 0.05, 100000, 40.0)])
def test_simulate_records_its_last_step(tmp_path, capsys, t_end, dt, record_every, last):
    payload = {
        "schema_version": 1,
        "composition": composition_payload(8, 2),
        "equilibrium": EQ_BY_HEADWAY,
        "sim": {
            "dt": dt,
            "t_end": t_end,
            "record_every": record_every,
            "perturbation": {"amplitude": 1e-3, "kind": "seeded_random_zero_sum", "seed": 1},
        },
    }
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "trace.csv")
    assert [float(r[0]) for r in rows] == [0.0, pytest.approx(last)]
    assert f"to t = {rows[-1][0]} s" in capsys.readouterr().out


@pytest.mark.parametrize("dt, code", [(1.0, 4), (0.6, 0)])
def test_simulate_unstable_step_size_exits_4(tmp_path, capsys, dt, code):
    # dt * beta_max = 4.18 at dt = 1: RK4 itself blows up, which is no collision
    payload = {
        "schema_version": 1,
        "composition": composition_payload(8, 2),
        "equilibrium": EQ_BY_HEADWAY,
        "sim": {
            "dt": dt,
            "t_end": 200.0,
            "perturbation": {"amplitude": 0.01, "kind": "seeded_random_zero_sum", "seed": 1},
        },
    }
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:")
        assert "dt <= 2.785/beta_max = 0.665 s" in err


def test_svg_is_pure_function_of_csv(tmp_path):
    payload = {
        "schema_version": 1,
        "composition": composition_payload(10, 2),
        "equilibrium": {"v_bar": 4.0},
        "sim": {
            "t_end": 5.0,
            "perturbation": {"amplitude": 1e-3, "kind": "single_vehicle_kick"},
        },
        "svg": True,
    }
    cfg = write_config(tmp_path, payload)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["simulate", "--config", cfg, "--out", str(out), "--deterministic"]) == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "trace.svg").read_bytes() == (out_b / "trace.svg").read_bytes()


def test_sweep_command_crosses_zero(tmp_path):
    payload = {
        "schema_version": 1,
        "populations": [
            {"class_id": 1, "model": MODEL_1},
            {"class_id": 2, "model": MODEL_2},
        ],
        "equilibrium": EQ_BY_HEADWAY,
        "sweep": {"n_totals": [4, 6, 10, 20, 40, 80], "rate_class1": 0.802},
        "svg": True,
    }
    cfg = write_config(tmp_path, payload)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["n_total", "rate_class1", "abscissa_1ps", "verdict"]
    abscissas = [float(r[2]) for r in rows]
    verdicts = [r[3] for r in rows]
    assert min(abscissas) < 0 < max(abscissas)
    assert "unstable" in verdicts and "stable" in verdicts
    assert (tmp_path / "sweep.svg").exists()


def test_sweep_verdicts_equal_one_size_at_a_time(tmp_path):
    # at rate 0.93 the sizes 4-7 round to one class and the others to two, so the batch mixes both
    n_totals = list(range(4, 25)) + [50, 800]
    payload = {
        "schema_version": 1,
        "populations": [{"class_id": 1, "model": MODEL_1}, {"class_id": 2, "model": MODEL_2}],
        "equilibrium": EQ_BY_HEADWAY,
        "sweep": {"n_totals": n_totals, "rate_class1": 0.93},
    }
    assert main(["sweep", "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "sweep.csv")
    pops = cli._build_populations(payload["populations"])
    trios = cli._trios_at(pops, cli._resolve_v_bar(EQ_BY_HEADWAY, pops))
    fleets = [Fleet.from_rates(trios, [0.93, 1.0 - 0.93], n) for n in n_totals]
    assert {len(fleet.counts) for fleet in fleets} == {1, 2}
    for row, n, fleet in zip(rows, n_totals, fleets):
        ab = rightmost_eigenvalue(fleet).real
        verdict = "unstable" if ab > ABSCISSA_TOL else "stable" if ab < -ABSCISSA_TOL else "marginal"
        assert (int(row[0]), float(row[2]), row[3]) == (n, ab, verdict)


def test_sweep_reads_a_top_within_the_tolerance_as_marginal(tmp_path, capsys, monkeypatch):
    # cmd_sweep imports rightmost_eigenvalues when it runs, so the patch reaches it
    monkeypatch.setattr(spectrum, "rightmost_eigenvalues", lambda fleets: [complex(5e-10, 0.3) for _ in fleets])
    payload = {
        "schema_version": 1,
        "populations": [{"class_id": 1, "model": MODEL_1}, {"class_id": 2, "model": MODEL_2}],
        "equilibrium": EQ_BY_HEADWAY,
        "sweep": {"n_totals": [10, 20], "rate_class1": 0.8},
    }
    assert main(["sweep", "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert [(r[2], r[3]) for r in rows] == [("5e-10", "marginal")] * 2
    assert "no unstable size in grid" in capsys.readouterr().out


def test_sweep_empty_grid_exits_2(tmp_path):
    payload = {
        "schema_version": 1,
        "populations": [
            {"class_id": 1, "model": MODEL_1},
            {"class_id": 2, "model": MODEL_2},
        ],
        "equilibrium": EQ_BY_HEADWAY,
        "sweep": {"n_totals": [], "rate_class1": 0.802},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["tau0", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["tau0", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def valid_config(command):
    """A config that ``command`` accepts, with every required section."""
    pops = [{"class_id": 1, "model": MODEL_1}, {"class_id": 2, "model": MODEL_2}]
    by_command = {
        "tau0": {"populations": pops},
        "sweep": {"populations": pops, "sweep": {"n_totals": [4], "rate_class1": 0.8}},
        "margin": {"populations": [dict(p, count=2) for p in pops]},
        "simulate": {
            "composition": composition_payload(2, 2),
            "sim": {"t_end": 1.0, "perturbation": {"amplitude": 0.0, "kind": "single_vehicle_kick"}},
        },
    }
    sections = by_command.get(command, {"composition": composition_payload(2, 2)})
    return {"schema_version": 1, "equilibrium": EQ_BY_HEADWAY, **sections}


COMMANDS = ["equilibrium", "linearize", "spectrum", "simulate", "tau0", "margin", "sweep"]


def rejected_configs():
    for command in COMMANDS:
        yield command, "unknown_key", dict(valid_config(command), surprise=True)
        for section in valid_config(command):
            cfg = valid_config(command)
            del cfg[section]
            yield command, f"no_{section}", cfg
    for command in ("tau0", "margin", "sweep"):
        yield command, "length_equilibrium", dict(valid_config(command), equilibrium={"length": 50.0})
    for command in ("tau0", "sweep"):
        pops = valid_config(command)["populations"]
        yield command, "1_population", dict(valid_config(command), populations=pops[:1])
        three = pops + [{"class_id": 3, "model": MODEL_1}]
        yield command, "3_populations", dict(valid_config(command), populations=three)
    for command in ("equilibrium", "linearize", "spectrum", "tau0"):
        yield command, "svg", dict(valid_config(command), svg=True)


@pytest.mark.parametrize(
    "command, payload",
    [pytest.param(c, p, id=f"{c}-{why}") for c, why, p in rejected_configs()],
)
def test_schema_rejects_config(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_valid_config_is_accepted(tmp_path, command):
    cfg = write_config(tmp_path, valid_config(command))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0


_LITERAL = "<literal>"


def _with_literal(cfg, literal):
    """``cfg`` as JSON text, with the number ``literal`` written where ``_LITERAL`` was."""
    return json.dumps(cfg).replace(json.dumps(_LITERAL), literal)


def config_mistakes():
    """Configs the schema passes that hold a mistake only the CLI can see."""
    for command in COMMANDS:
        cfg = valid_config(command)
        pops = cfg["composition"]["populations"] if "composition" in cfg else cfg["populations"]
        pops[1]["class_id"] = pops[0]["class_id"]
        yield command, "duplicate_ids", cfg, "duplicate class ids"
    for why, c1, c2, ordering, message in [
        ("ordering_miscounts", 2, 2, [1, 1, 2], "ordering must contain"),
        ("ordering_unknown_class", 2, 2, [1, 1, 2, 2, 3], "ordering must contain"),
        ("all_counts_zero", 0, 0, "spread", "at least one vehicle"),
    ]:
        cfg = dict(valid_config("equilibrium"), composition=composition_payload(c1, c2, ordering))
        yield "equilibrium", why, cfg, message
    cfg = valid_config("margin")
    for p in cfg["populations"]:
        p["count"] = 0
    yield "margin", "all_counts_zero", cfg, "at least one vehicle"
    cfg = valid_config("tau0")
    below_length = {"calibrate": {"h_ref": REF_LV, "slope": REF_SLOPE, "l_v": REF_LV, "d0": REF_D0}}
    cfg["populations"][1]["model"] = dict(MODEL_2, preference=below_length)
    yield "tau0", "h_ref_at_vehicle_length", cfg, "h_ref must exceed"
    cfg = valid_config("simulate")
    cfg["sim"]["t_end"] = 0.01
    yield "simulate", "t_end_below_dt", cfg, "t_end >= dt"
    cfg = valid_config("simulate")
    cfg["sim"]["perturbation"] = {"amplitude": 0.01, "kind": "seeded_random_zero_sum", "seed": -1}
    yield "simulate", "negative_seed", cfg, "seed must be a whole number >= 0, got -1"
    nan, inf = float("nan"), float("inf")
    yield "equilibrium", "nan_v_bar", dict(valid_config("equilibrium"), equilibrium={"v_bar": nan}), "NaN"
    yield "equilibrium", "infinite_length", dict(valid_config("equilibrium"), equilibrium={"length": inf}), "Infinity"
    cfg = valid_config("margin")
    cfg["populations"][0]["model"] = dict(MODEL_1, a=nan)
    yield "margin", "nan_gain", cfg, "NaN"
    cfg = valid_config("sweep")
    cfg["sweep"]["rate_class1"] = nan
    yield "sweep", "nan_rate", cfg, "NaN"
    # number literals past the largest double, which json.dumps cannot write
    for why, key, literal in [
        ("v_bar_1e400", "v_bar", "1e400"),
        ("length_1e400", "length", "1e400"),
        ("v_bar_400_digits", "v_bar", "9" * 400),
    ]:
        cfg = dict(valid_config("equilibrium"), equilibrium={key: _LITERAL})
        yield "equilibrium", why, _with_literal(cfg, literal), "does not fit a finite double"
    cfg = valid_config("margin")
    cfg["populations"][0]["model"] = dict(MODEL_1, a=_LITERAL)
    yield "margin", "gain_1e400", _with_literal(cfg, "1e400"), "does not fit a finite double"
    # json.loads keeps the last of two equal keys unless told otherwise
    text = json.dumps(valid_config("tau0")).replace('"a": 4.0', '"a": 4.0, "a": 0.5', 1)
    yield "tau0", "duplicate_key", text, "key 'a' appears twice"
    # sech^2 at h_ref makes v_max overflow to inf at 818.45 m and underflows to 0 at 2000 m
    for h_ref in (818.45, 2000.0):
        far = {"calibrate": {"h_ref": h_ref, "slope": 0.5, "l_v": REF_LV, "d0": REF_D0}}
        cfg = valid_config("equilibrium")
        cfg["composition"]["populations"][0]["model"] = dict(MODEL_1, preference=far)
        yield "equilibrium", f"h_ref_{h_ref:g}_needs_infinite_v_max", cfg, "no finite v_max"


@pytest.mark.parametrize(
    "command, payload, message",
    [pytest.param(c, p, m, id=f"{c}-{why}") for c, why, p, m in config_mistakes()],
)
def test_config_mistake_exits_2(tmp_path, capsys, command, payload, message):
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["tau0", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["tau0", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def _fresh(value):
    """A deep copy that, unlike ``copy.deepcopy``, shares no subtree (the models share a preference)."""
    return json.loads(json.dumps(value))


def _slot(cfg, where):
    """The container of the value at dotted path ``where`` in ``cfg``, and its key there."""
    *parents, last = [int(k) if k.isdigit() else k for k in where.split(".")]
    for key in parents:
        cfg = cfg[key]
    return cfg, last


def _with(command, where, value):
    """``valid_config(command)`` with the value at dotted path ``where`` replaced, or deleted for None."""
    cfg = _fresh(valid_config(command))
    node, key = _slot(cfg, where)
    if value is None:
        del node[key]
    else:
        node[key] = value
    return cfg


# one rejection per kind of schema keyword: id, command, where, new value, JSON path named, message
KEYWORD_REJECTIONS = [
    ("type", "margin", "populations.0.model.a", "4", "$.populations[0].model.a", "is not of type 'number'"),
    ("type_bool_is_no_number", "margin", "populations.1.model.b", True, "$.populations[1].model.b", "True is not"),
    ("type_integer", "margin", "populations.0.class_id", 1.5, "$.populations[0].class_id", "not of type 'integer'"),
    ("const", "tau0", "schema_version", 2, "$.schema_version", "2 is not 1"),
    ("const_true_is_not_1", "tau0", "schema_version", True, "$.schema_version", "True is not 1"),
    ("enum", "simulate", "sim.perturbation.kind", "kick", "$.sim.perturbation.kind", "is not one of"),
    ("minimum", "margin", "populations.1.count", -1, "$.populations[1].count", "-1 must be >= 0"),
    ("maximum", "sweep", "sweep.rate_class1", 1.5, "$.sweep.rate_class1", "1.5 must be <= 1"),
    ("exclusiveMinimum", "equilibrium", "composition.populations.1.model.a", 0,
     "$.composition.populations[1].model.a", "0 must be > 0"),
    ("required", "tau0", "populations.0.model.b", None, "$.populations[0].model", "missing required key 'b'"),
    ("additionalProperties", "simulate", "sim.surprise", 1, "$.sim", "unknown key 'surprise'"),
    ("items", "sweep", "sweep.n_totals", [4, 1], "$.sweep.n_totals[1]", "1 must be >= 2"),
    ("minItems", "sweep", "sweep.n_totals", [], "$.sweep.n_totals", "has 0 items, fewer than 1"),
    ("maxItems", "tau0", "populations", [{"class_id": c, "model": MODEL_1} for c in (1, 2, 3)],
     "$.populations", "has 3 items, more than 2"),
    ("oneOf_no_form", "linearize", "equilibrium", {"v_bar": 4.0, "length": 50.0}, "$.equilibrium", "unknown key"),
    ("oneOf_misspelt_name", "equilibrium", "composition.ordering", "sprad", "$.composition.ordering",
     "'sprad' is not one of"),
    ("oneOf_deepest_form", "equilibrium", "composition.ordering", [1, "2"], "$.composition.ordering[1]",
     "is not of type 'integer'"),
    ("oneOf_inner_value", "tau0", "populations.1.model.preference.calibrate.slope", -1.0,
     "$.populations[1].model.preference.calibrate.slope", "-1.0 must be > 0"),
]


@pytest.mark.parametrize(
    "command, where, value, json_path, message", [pytest.param(*r[1:], id=r[0]) for r in KEYWORD_REJECTIONS]
)
def test_rejection_names_json_path(tmp_path, capsys, command, where, value, json_path, message):
    cfg = write_config(tmp_path, _with(command, where, value))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {json_path}: ") and message in err, err
@pytest.mark.parametrize(
    "command, where, value",
    [
        ("margin", "populations.0.count", 2.0),  # Draft 2020-12: an integral float is an integer
        ("margin", "populations.0.count", 0),
        ("sweep", "sweep.rate_class1", 1),
        ("sweep", "sweep.n_totals", [2]),
    ],
)
def test_schema_accepts_boundary_values(tmp_path, command, where, value):
    cfg = write_config(tmp_path, _with(command, where, value))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0


SEEDED_SIM = {"t_end": 1.0, "perturbation": {"amplitude": 0.01, "kind": "seeded_random_zero_sum", "seed": 3}}
# on the 2 + 2 ring mode 2 would perturb no vehicle, which simulate refuses
MODE_SIM = {"t_end": 1.0, "record_every": 2, "perturbation": {"amplitude": 0.01, "kind": "sinusoidal_mode", "mode": 3}}

# id, command, edits to valid_config(command), and the integer the twin writes as a float
INTEGRAL_FLOATS = [
    ("n_totals", "sweep", {"sweep.n_totals": [4, 10]}, "sweep.n_totals.0"),
    ("count_spread", "equilibrium", {}, "composition.populations.0.count"),
    ("count_blocks", "equilibrium", {"composition.ordering": "blocks"}, "composition.populations.0.count"),
    ("count_spectrum", "spectrum", {}, "composition.populations.0.count"),
    ("count_simulate", "simulate", {}, "composition.populations.0.count"),
    ("class_id", "equilibrium", {}, "composition.populations.0.class_id"),
    ("ordering_entry", "equilibrium", {"composition.ordering": [1, 2, 1, 2]}, "composition.ordering.0"),
    ("seed", "simulate", {"sim": SEEDED_SIM}, "sim.perturbation.seed"),
    ("mode", "simulate", {"sim": MODE_SIM}, "sim.perturbation.mode"),
    ("record_every", "simulate", {"sim": MODE_SIM}, "sim.record_every"),
]


@pytest.mark.parametrize("command, edits, where", [pytest.param(*r[1:], id=r[0]) for r in INTEGRAL_FLOATS])
def test_integral_float_reads_as_its_integer(tmp_path, command, edits, where):
    # Draft 2020-12 counts 2.0 as an integer, so the builders must take it as one
    cfg = _fresh(valid_config(command))
    for path, value in edits.items():
        node, key = _slot(cfg, path)
        node[key] = _fresh(value)
    node, key = _slot(cfg, where)
    outs = []
    for cast in (int, float):
        node[key] = cast(node[key])
        out = tmp_path / cast.__name__
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out), "--deterministic"]) == 0
        outs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
    assert outs[0] and outs[0] == outs[1]


@pytest.mark.parametrize("command", COMMANDS)
def test_schema_uses_only_checked_keywords(command):
    def walk(schema):
        assert set(schema) <= _schema.KEYWORDS, set(schema) - _schema.KEYWORDS
        assert schema.get("type", "object") in _schema.TYPES
        assert schema.get("additionalProperties", False) is False
        for value in [schema.get("const", 0), *schema.get("enum", [])]:
            assert isinstance(value, (str, int, float, bool))
        for sub in [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]:
            walk(sub)
        if "items" in schema:
            walk(schema["items"])

    walk(_config_schema(command))


def test_one_of_needs_exactly_one_match():
    # no command schema has overlapping forms, so the rule is checked on its own
    schema = {"oneOf": [{"type": "integer"}, {"type": "number"}]}
    _schema.validate(1.5, schema)
    with pytest.raises(ConfigError, match=r"^\$: matches 2 of its 2 allowed forms"):
        _schema.validate(1, schema)


# values a mutation puts in a config: scalars of every JSON kind near each bound,
# and subtrees that are valid somewhere, so many mutants stay valid
SCALARS = [
    True, False, None, -1, 0, 1, 2, 3, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 1e300,
    "blocks", "spread", "bando_ftl", "sinusoidal_mode", "x",
]
SUBTREES = [
    [], [1], [1, 2, 1, 2], [4, 6.0], {}, {"v_bar": 4.0}, {"length": 50.0}, EQ_BY_HEADWAY, CAL_PREF, MODEL_2,
    {"v_max": 30.0, "l_v": 4.5, "d0": 2.23}, {"class_id": 3, "count": 2, "model": MODEL_1},
]
NEW_KEYS = ["surprise", "svg", "mode", "seed", "dt", "count", "record_every", "calibrate"]


def _slots(node):
    """Every (container, key) pair in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


def _kind(value):
    return "number" if type(value) in (int, float) else type(value)


def mutant(command, rng):
    cfg = _fresh(valid_config(command))
    for _ in range(rng.randint(1, 2)):
        parent, key = rng.choice(list(_slots(cfg)))
        values = SCALARS + SUBTREES
        if rng.random() < 0.7:  # mostly a value of the same kind, which may stay valid
            values = [v for v in values if _kind(v) == _kind(parent[key])] or values
        value = _fresh(rng.choice(values))
        op = rng.choice([0, 0, 1, 2])
        if op == 0:
            parent[key] = value
        elif op == 1:
            del parent[key]
        elif isinstance(parent, dict):
            parent[rng.choice(NEW_KEYS)] = value
        else:
            parent.append(_fresh(parent[key]))
    return cfg


@pytest.mark.parametrize("command", COMMANDS)
def test_checker_agrees_with_jsonschema(command):
    jsonschema = pytest.importorskip("jsonschema")
    schema = _config_schema(command)
    oracle = jsonschema.Draft202012Validator(schema)
    rng = random.Random(COMMANDS.index(command))
    accepted = 0
    for _ in range(500):
        cfg = mutant(command, rng)
        try:
            _schema.validate(cfg, schema)
            ok = True
        except ConfigError:
            ok = False
        assert ok == oracle.is_valid(cfg), cfg
        accepted += ok
    assert min(accepted, 500 - accepted) >= 25  # both verdicts are well represented


ROOT = Path(__file__).resolve().parents[1]


def _run_python(*argv):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_jsonschema_out():
    proc = _run_python("-c", "import sys, ringwave.cli; print([m for m in sys.modules if 'jsonschema' in m])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweep_leaves_numpy_ma_out(tmp_path):
    cfg = write_config(tmp_path, valid_config("sweep"))
    code = (
        "import sys; from ringwave.cli import main; "
        f"assert main(['sweep', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0; "
        "print('numpy.ma' in sys.modules)"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_benchmark_tracer_records_validate_span(tmp_path):
    cfg = write_config(tmp_path, valid_config("tau0"))
    trace = tmp_path / "trace.json"
    tracecli = str(ROOT / "bench" / "tracecli.py")
    proc = _run_python(tracecli, str(trace), "t", "tau0", "--config", cfg, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(trace.read_text())["spans"]
    assert [s for s in spans if s["name"] == "cli.validate" and "error" not in s]
