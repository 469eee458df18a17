import csv
import json
import random

import pytest

from ringwave.cli import main

from conftest import REF_D0, REF_HEADWAY, REF_LV, REF_SLOPE

CAL_PREF = {
    "calibrate": {"h_ref": REF_HEADWAY, "slope": REF_SLOPE, "l_v": REF_LV, "d0": REF_D0}
}
MODEL_1 = {"kind": "bando_ftl", "a": 4.0, "b": 20.0, "preference": CAL_PREF}
MODEL_2 = {"kind": "bando_ftl", "a": 0.5, "b": 20.0, "preference": CAL_PREF}
EQ_BY_HEADWAY = {"class_headway": {"class_id": 1, "headway": REF_HEADWAY}}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
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


@pytest.mark.parametrize("c1, c2, headway", [(80, 20, 20.0), (8, 2, 37.0)])
def test_spectrum_near_free_flow(tmp_path, c1, c2, headway):
    # eigenvalues crowd the origin and the zeros of F here: accurate ones read
    # |F(lambda) - 1| up to 5e-5, and a tolerance on |lambda| finds 10 zeros at 37 m
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


def test_spectrum_refuses_spurious_dense_eigenvalues(tmp_path, capsys):
    # block order makes the 800-vehicle reference ring so non-normal that dense
    # eigvals reads abscissa 0.0249; the class counts fix it at 0.015896
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "composition": composition_payload(640, 160, ordering="blocks"),
            "equilibrium": EQ_BY_HEADWAY,
        },
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "numeric failure" in err and "ordering" in err
    assert not (tmp_path / "spectrum.csv").exists()


def test_spectrum_refuses_eigenvalues_off_the_level_set(tmp_path, capsys):
    # a shuffled 320 + 80 reference ring keeps its rightmost eigenvalue, so the
    # abscissa cross-check passes, but hundreds of its damped dense eigenvalues
    # are far from every root of F(lambda) = 1
    ordering = [1] * 320 + [2] * 80
    random.Random(1).shuffle(ordering)
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "composition": composition_payload(320, 80, ordering=ordering),
            "equilibrium": EQ_BY_HEADWAY,
        },
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "numeric failure" in err and "miss F(lambda) = 1" in err and "ordering" in err
    assert "and 0 of 799" not in err
    assert not (tmp_path / "spectrum.csv").exists()


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
