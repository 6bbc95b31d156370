import json
import os

import numpy as np
import pytest

from drawdown_options import cli
from drawdown_options.cli import main

BASE = """\
# flat reference model
r = 0.06
strike = 1.0
payoff = put
delta.family = constant
delta.params = 0.03
sigma.family = constant
sigma.params = 0.2
grid.n_s = 24
grid.n_y = 16
sim.n_paths = 200
sim.dt = 0.01
sim.horizon = 120
"""

FAST = """\
# higher rate so a short horizon clears the truncation budget
r = 0.3
strike = 1.0
payoff = put
delta.family = constant
delta.params = 0.1
sigma.family = constant
sigma.params = 0.2
grid.n_s = 24
grid.n_y = 16
sim.n_paths = 300
sim.dt = 0.01
sim.horizon = 24
"""

# the flat call, with few paths at a coarse step so a simulation stays fast
CALL = (
    BASE.replace("payoff = put", "payoff = call")
    .replace("sim.n_paths = 200", "sim.n_paths = 2000")
    .replace("sim.dt = 0.01", "sim.dt = 0.05")
)


def write_config(tmp_path, text=BASE, extra=""):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_text(text + f"output_dir = {out_dir}\n" + extra)
    return str(cfg), out_dir


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# roots


def test_roots_exports_full_grid(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    assert main(["roots", "--config", cfg]) == 0
    header, rows = read_rows(out / "roots.csv")
    assert header == "s,y,gamma1,gamma2,dg1_ds,dg2_ds,dg1_dy,dg2_dy"
    assert len(rows) == 24 * 16
    arr = np.array(rows, dtype=float)
    np.testing.assert_allclose(arr[:, 2], 1.5, rtol=1e-12)
    np.testing.assert_allclose(arr[:, 3], -2.0, rtol=1e-12)
    assert np.all(arr[:, 1] <= arr[:, 0] + 1e-15)  # drawdown clamped to s


def test_formatted_floats_round_trip(tmp_path):
    cfg, out = write_config(tmp_path)
    main(["roots", "--config", cfg])
    _, rows = read_rows(out / "roots.csv")
    for token in rows[7]:
        assert "%.17g" % float(token) == token


# ---------------------------------------------------------------------------
# boundary


def test_boundary_2d_flat_put(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["boundary", "--config", cfg]) == 0
    header, rows = read_rows(out / "boundary2d.csv")
    assert header == "s,value,region_index"
    vals = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(vals, 2.0 / 3.0, rtol=1e-10)
    sw_header, sw_rows = read_rows(out / "switches.csv")
    assert sw_header == "s,direction"
    assert len(sw_rows) == 1
    assert abs(float(sw_rows[0][0]) - 2.0 / 3.0) < 1e-9
    assert sw_rows[0][1] == "enter"
    # region index steps down from 1 to 0 across the switch
    for r in rows:
        want = 1 if float(r[0]) < 2.0 / 3.0 else 0
        assert int(r[2]) == want


def test_boundary_3d_exports_surface_and_caps(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["boundary", "--config", cfg, "--dim", "3"]) == 0
    header, rows = read_rows(out / "boundary3d.csv")
    assert header == "s,y,value,active,region_label"
    assert len(rows) == 24 * 16
    labels = {r[4] for r in rows}
    assert labels <= {"stop", "direct", "reflect", ""}
    assert {"direct", "reflect"} <= labels
    cap_header, cap_rows = read_rows(out / "caps.csv")
    assert cap_header == "s,y_bar"
    assert len(cap_rows) == 24
    # flat model: the drawdown cap is s - 2/3 wherever it is finite
    for r in cap_rows:
        s, y_bar = float(r[0]), float(r[1])
        if np.isfinite(y_bar):
            assert abs(y_bar - (s - 2.0 / 3.0)) < 1e-6


def test_boundary_reruns_are_byte_identical(tmp_path):
    cfg, out = write_config(tmp_path)
    main(["boundary", "--config", cfg, "--dim", "3"])
    first = {p: (out / p).read_bytes() for p in ("boundary3d.csv", "caps.csv")}
    main(["boundary", "--config", cfg, "--dim", "3"])
    for p, blob in first.items():
        assert (out / p).read_bytes() == blob


def test_boundary_shoot_offset_put_only(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    assert main(["boundary", "--config", cfg, "--shoot-offset", "1e-4"]) == 0
    assert "shoot-offset" in capsys.readouterr().out
    header, rows = read_rows(out / "boundary2d_offset.csv")
    assert header == "s,value"
    assert len(rows) == 24


@pytest.mark.parametrize(
    "text, dim", [pytest.param(CALL, "2", id="call-2d"), pytest.param(BASE, "3", id="put-3d")]
)
def test_boundary_shoot_offset_outside_the_2d_put_exits_1(tmp_path, capsys, text, dim):
    cfg, out = write_config(tmp_path, text=text)
    argv = ["boundary", "--config", cfg, "--dim", dim, "--shoot-offset", "1e-4"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "config error: --shoot-offset applies to the 2D put only" in captured.err
    assert captured.out == ""
    assert not (out / "boundary2d_offset.csv").exists()


@pytest.mark.parametrize("text, dim", [
    pytest.param(CALL, "2", id="call-2d"),
    pytest.param(BASE, "3", id="put-3d"),
    pytest.param(BASE, "2", id="put-2d"),
])
def test_boundary_zero_shoot_offset_is_accepted(tmp_path, text, dim):
    cfg, out = write_config(tmp_path, text=text)
    assert main(["boundary", "--config", cfg, "--dim", dim, "--shoot-offset", "0"]) == 0
    assert not (out / "boundary2d_offset.csv").exists()


def test_boundary_bad_offset_is_constraint_breach(tmp_path, capsys):
    cfg, _ = write_config(tmp_path)
    assert main(["boundary", "--config", cfg, "--shoot-offset", "-0.5"]) == 2
    assert "constraint breach" in capsys.readouterr().err


@pytest.mark.parametrize("offset", ["nan", "inf", "-inf"])
def test_boundary_non_finite_offset_exits_1(tmp_path, capsys, offset):
    cfg, out = write_config(tmp_path)
    assert main(["boundary", "--config", cfg, f"--shoot-offset={offset}"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# value


def test_value_reference_point(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    assert main(["value", "--config", cfg, "--dim", "3"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("value(1, 1, 0) = ")
    header, rows = read_rows(out / "value.csv")
    assert header == "x,s,y,value"
    assert len(rows) == 1
    assert abs(float(rows[0][3]) - 4.0 / 27.0) < 1e-10


def test_value_2d_matches_3d_for_flat_model(tmp_path):
    cfg, out = write_config(tmp_path)
    main(["value", "--config", cfg, "--dim", "2"])
    v2 = float(read_rows(out / "value.csv")[1][0][3])
    main(["value", "--config", cfg, "--dim", "3"])
    v3 = float(read_rows(out / "value.csv")[1][0][3])
    assert abs(v2 - v3) < 1e-10


def test_value_2d_below_the_maximum_needs_no_drawdown(tmp_path, capsys):
    # the maximum-only model has no y: the point takes the drawdown s - x
    from drawdown_options import PutSolution2D
    from drawdown_options.cli import _f
    from drawdown_options.config import load_config

    cfg, out = write_config(tmp_path)
    argv = ["value", "--config", cfg, "--dim", "2", "--x", "0.9", "--s", "1.3"]
    assert main(argv) == 0
    want = PutSolution2D(load_config(cfg).spec).value(0.9, 1.3)
    line = f"value({_f(0.9)}, {_f(1.3)}, {_f(1.3 - 0.9)}) = {_f(want)}\n"
    assert capsys.readouterr().out == line
    blob = (out / "value.csv").read_bytes()
    # the same point with that drawdown given writes the same file
    assert main(argv + ["--y", "0.4"]) == 0
    assert (out / "value.csv").read_bytes() == blob


def test_value_outside_state_space_exits_3(tmp_path, capsys):
    cfg, _ = write_config(tmp_path)
    assert main(["value", "--config", cfg, "--x", "2.5", "--s", "2.0"]) == 3
    assert "domain error" in capsys.readouterr().err


def test_value_on_a_cut_remarch_exits_4(tmp_path, capsys, monkeypatch):
    # a direct line's re-march cut at the shortest step is a StepError, not
    # the interpolated level; the surface and its diagonal curve are marched
    # at the plain target, only the query's lane at a target no step meets
    from drawdown_options import odestep, solver3d

    march = solver3d._boundary_slice

    def cut_at_the_floor(*args):
        with monkeypatch.context() as m:
            m.setattr(odestep, "STEP_REL_TOL", 0.0)
            return march(*args)

    monkeypatch.setattr(solver3d, "_boundary_slice", cut_at_the_floor)
    sloped = BASE.replace("delta.params = 0.03", "delta.params = 0.02,0.01")
    sloped = sloped.replace("delta.family = constant", "delta.family = s_only")
    cfg, out = write_config(tmp_path, text=sloped)
    argv = ["value", "--config", cfg, "--dim", "3", "--x", "0.8", "--s", "1.0",
            "--y", "0.5"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "convergence failure: re-marched put boundary of the line" in err
    assert "failed its error check at the shortest step" in err
    assert not (out / "value.csv").exists()


# ---------------------------------------------------------------------------
# config handling


def test_unknown_key_exits_1(tmp_path, capsys):
    # sim.scheme is no key: paths always follow the log-Euler scheme
    for extra in ("no.such.key = 1\n", "sim.scheme = euler_log\n"):
        cfg, _ = write_config(tmp_path, extra=extra)
        assert main(["roots", "--config", cfg]) == 1
        assert "config error" in capsys.readouterr().err


def test_duplicate_key_exits_1(tmp_path):
    cfg, _ = write_config(tmp_path, extra="r = 0.07\n")
    assert main(["roots", "--config", cfg]) == 1


def test_missing_required_key_exits_1(tmp_path):
    cfg = tmp_path / "broken.conf"
    cfg.write_text("r = 0.06\nstrike = 1.0\n")
    assert main(["roots", "--config", str(cfg)]) == 1


def test_missing_config_file_exits_1(tmp_path):
    assert main(["roots", "--config", str(tmp_path / "absent.conf")]) == 1


def test_bad_subcommand_usage_exits_1(tmp_path, capsys):
    cfg, _ = write_config(tmp_path)
    assert main(["boundary", "--config", cfg, "--dim", "7"]) == 1


# every flag some subcommand reads, with a value it would accept
_FLAG_VALUES = {
    "--dim": "2", "--seed": "1", "--shoot-offset": "1e-4", "--perturb": "0.9",
    "--x": "1.0", "--s": "1.0", "--y": "0.0",
}
_READS = {
    "roots": set(),
    "boundary": {"--dim", "--shoot-offset"},
    "value": {"--dim", "--x", "--s", "--y"},
    "verify": {"--seed", "--perturb", "--x", "--s", "--y"},
    "simulate": {"--dim", "--seed", "--x", "--s", "--y"},
}


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c, reads in _READS.items() for f in _FLAG_VALUES if f not in reads],
)
def test_flag_a_subcommand_does_not_read_exits_1(tmp_path, capsys, command, flag):
    cfg, out = write_config(tmp_path)
    assert main([command, "--config", cfg, flag, _FLAG_VALUES[flag]]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_out_flag_overrides_config_directory(tmp_path):
    cfg, out = write_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["roots", "--config", cfg, "--out", str(other)]) == 0
    assert (other / "roots.csv").exists()
    assert not (out / "roots.csv").exists()


# ---------------------------------------------------------------------------
# simulate and verify


def test_simulate_writes_json_and_respects_seed(tmp_path, capsys):
    cfg, out = write_config(tmp_path, text=FAST)
    assert main(["simulate", "--config", cfg, "--dim", "2", "--seed", "1"]) == 0
    blob1 = (out / "simulate.json").read_bytes()
    rec = json.loads(blob1)
    assert set(rec) == {
        "mean", "stderr", "n_paths", "n_horizon", "mean_stop_time",
        "x", "s", "y", "seed", "dt", "horizon",
    }
    assert rec["seed"] == 1
    out_line = capsys.readouterr().out
    assert "mean" in out_line and "stderr" in out_line

    main(["simulate", "--config", cfg, "--dim", "2", "--seed", "1"])
    assert (out / "simulate.json").read_bytes() == blob1
    main(["simulate", "--config", cfg, "--dim", "2", "--seed", "2"])
    assert json.loads((out / "simulate.json").read_text())["mean"] != rec["mean"]


@pytest.mark.parametrize("line", ["r = inf", "delta.params = inf"])
def test_value_with_a_non_finite_model_exits_1(tmp_path, capsys, line):
    # rejected with the config, not as a constraint breach of the curve
    key = line.split(" = ")[0]
    text = "".join(
        ln + "\n" for ln in BASE.splitlines() if not ln.startswith(key + " ")
    )
    cfg, out = write_config(tmp_path, text=text + line + "\n")
    assert main(["value", "--config", cfg, "--dim", "2"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["roots"], ["value", "--dim", "2"]])
def test_a_rate_whose_roots_overflow_exits_1(tmp_path, capsys, argv):
    # finite, but 2r/sigma^2 overflows and the roots come out NaN
    cfg, out = write_config(tmp_path, text=BASE.replace("r = 0.06", "r = 1e308"))
    assert main([*argv, "--config", cfg]) == 1
    assert "roots are not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_simulate_non_finite_horizon_exits_1(tmp_path, capsys, horizon):
    # rejected with the config, before any solve
    text = BASE.replace("sim.horizon = 120", f"sim.horizon = {horizon}")
    cfg, out = write_config(tmp_path, text=text)
    assert main(["simulate", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "simulate.json").exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_out_of_range_exits_1_before_the_solve(
    tmp_path, capsys, monkeypatch, command, seed
):
    def no_solve(*args):
        raise AssertionError("solved before the seed was checked")

    monkeypatch.setattr(cli, "_solution_3d", no_solve)
    cfg, out = write_config(tmp_path, text=FAST)
    assert main([command, "--config", cfg, "--seed", seed]) == 1
    assert "config error: seed must be an int in [0, 2**64)" in capsys.readouterr().err
    assert not (out / f"{command}.json").exists()


def test_simulate_2d_below_the_maximum_needs_no_drawdown(tmp_path):
    cfg, out = write_config(tmp_path, text=FAST)
    argv = ["simulate", "--config", cfg, "--dim", "2", "--seed", "1",
            "--x", "0.9", "--s", "1.3"]
    assert main(argv) == 0
    blob = (out / "simulate.json").read_bytes()
    rec = json.loads(blob)
    assert rec["s"] - rec["y"] <= rec["x"] == 0.9
    assert main(argv + ["--y", "0.4"]) == 0
    assert (out / "simulate.json").read_bytes() == blob


def test_verify_rejects_dim_2(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, text=FAST)
    assert main(["verify", "--config", cfg, "--dim", "2"]) == 1
    assert "unrecognized arguments: --dim 2" in capsys.readouterr().err


@pytest.mark.parametrize("factors", ["0.9,x", "", "nan", "inf", "-1", "0", "0.9,nan"])
def test_verify_bad_perturb_exits_1(tmp_path, capsys, factors):
    cfg, _ = write_config(tmp_path, text=FAST)
    assert main(["verify", "--config", cfg, "--perturb", factors]) == 1
    assert "config error" in capsys.readouterr().err


def test_verify_passes_on_flat_model(tmp_path, capsys):
    cfg, out = write_config(tmp_path, text=FAST)
    assert main(["verify", "--config", cfg]) == 0
    assert "verification passed" in capsys.readouterr().out
    rec = json.loads((out / "verify.json").read_text())
    assert rec["passed"] is True
    assert rec["dominance_violations"] == 0
    assert rec["perturbation_violations"] == 0
    assert len(rec["perturbation_table"]) == 3


def test_the_2d_call_boundary_value_and_simulate(tmp_path, capsys):
    # the maximum-only call: its switch points, its value below the barrier
    # and a simulation of its rule
    from drawdown_options import CallSolution2D
    from drawdown_options.cli import _f
    from drawdown_options.config import load_config

    cfg, out = write_config(tmp_path, text=CALL)
    sol = CallSolution2D(load_config(cfg).spec)
    assert main(["boundary", "--config", cfg, "--dim", "2"]) == 0
    header, rows = read_rows(out / "switches.csv")
    assert header == "s,direction"
    assert rows == [[_f(pos), direction] for pos, direction in sol.switches]
    assert len(rows) == 1
    _, rows = read_rows(out / "boundary2d.csv")
    s = np.array([float(r[0]) for r in rows])
    assert sol.s_lo <= s[0] and s[-1] <= sol.s_hi
    assert [r[1] for r in rows] == [_f(v) for v in sol.boundary(s)]

    point = ["--x", "1.5", "--s", "2"]
    assert main(["value", "--config", cfg, "--dim", "2", *point]) == 0
    want = sol.value(1.5, 2.0)
    assert read_rows(out / "value.csv")[1] == [[_f(1.5), _f(2.0), _f(0.5), _f(want)]]

    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--dim", "2", "--seed", "3", *point]) == 0
    rec = json.loads((out / "simulate.json").read_text())
    assert (rec["x"], rec["s"], rec["y"], rec["n_paths"]) == (1.5, 2.0, 0.5, 2000)
    assert abs(rec["mean"] - want) < 3.0 * rec["stderr"]
    assert capsys.readouterr().out.startswith("mean ")
