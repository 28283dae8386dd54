import json
import math

import numpy as np
import pytest

from giantatoms import (
    CoefficientSet,
    GridRange,
    INITIAL_EG,
    PhysicalityError,
    Preset,
    build_heff,
    cli_main,
    parse_experiment_config,
    render_svg_heatmap,
    serialize_results,
    serialize_spec,
    trajectory,
)
from giantatoms.experiments import SweepGrid, SweepMetadata
from giantatoms.io_cli import ConfigSyntaxError, ConfigValidationError, ExperimentSpec

TAU = 2 * math.pi
ZERO_SET = CoefficientSet(0.0, 0.0, 0.0, 0.0, 0j, 0j)


# --- config parsing ---------------------------------------------------------


def test_parse_preset_spec():
    spec = parse_experiment_config('{"layout":"fully_braided","chi":1.0,"phi":1.0471975512}')
    assert spec.preset is Preset.FULLY_BRAIDED
    assert spec.chi == 1.0
    assert spec.phi == pytest.approx(math.pi / 3, abs=1e-9)
    assert spec.gamma == 1.0
    assert spec.initial == "eg"
    assert spec.time == GridRange(0.0, 50.0, 2001)


def test_parse_custom_layout_defaults():
    spec = parse_experiment_config('{"layout":{"a":[0,1,3],"b":[2,4,5]}}')
    assert spec.preset is None
    assert spec.positions == ((0, 1, 3), (2, 4, 5))
    assert spec.phi == GridRange(0.0, TAU, 2001)
    cfg = spec.layout()
    assert cfg.atom_a.positions == (0, 1, 3)


def test_parse_rejects_bad_chi():
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config('{"layout":"separated","chi":1.5}')
    assert err.value.field == "chi"


def test_parse_rejects_duplicate_positions():
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config('{"layout":{"a":[0,1,2],"b":[2,3,4]}}')
    assert err.value.field == "layout"
    assert "duplicate" in str(err.value)


def test_parse_syntax_error_reports_position():
    with pytest.raises(ConfigSyntaxError) as err:
        parse_experiment_config('{"layout": separated}')
    assert "line 1" in str(err.value)


def test_parse_rejects_unknown_field():
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config('{"layout":"separated","bogus":1}')
    assert err.value.field == "bogus"


def test_parse_rejects_missing_layout():
    with pytest.raises(ConfigValidationError):
        parse_experiment_config('{"gamma":1.0}')


def test_parse_rejects_unnormalized_initial():
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config('{"layout":"separated","initial":[1,0,1,0]}')
    assert err.value.field == "initial"


def test_parse_rejects_bad_grid():
    with pytest.raises(ConfigValidationError):
        parse_experiment_config('{"layout":"separated","time":{"start":-1,"stop":5,"count":10}}')
    with pytest.raises(ConfigValidationError):
        parse_experiment_config('{"layout":"separated","phi":{"start":0,"stop":1}}')


@pytest.mark.parametrize("text", [
    '{"layout":"fully_braided","chi":1.0,"phi":1.0471975512}',
    '{"layout":{"a":[0,1,3],"b":[2,4,5]}}',
    '{"layout":"separated","gamma":2.5,"chi":0.25,"phi":{"start":0,"stop":3.14,"count":11},'
    '"time":{"start":0,"stop":12.5,"count":26},"initial":[0.6,0,0,0.8],"window":5.0,'
    '"tol":0.01,"chis":[0,0.5,1],"out":"x.csv","format":"ndjson"}',
])
def test_spec_round_trip(text):
    spec = parse_experiment_config(text)
    again = parse_experiment_config(serialize_spec(spec).decode())
    assert again == spec


def test_serialize_spec_is_deterministic():
    spec = parse_experiment_config('{"layout":"separated","gamma":0.1}')
    assert serialize_spec(spec) == serialize_spec(spec)


# --- result serialization ---------------------------------------------------


def zero_trajectory():
    return trajectory(build_heff(ZERO_SET), INITIAL_EG, [0.0])


def test_trajectory_csv_golden_row():
    data = serialize_results(zero_trajectory(), "csv")
    assert data == b"t,c_eg_re,c_eg_im,c_ge_re,c_ge_im,concurrence\n0,1,0,0,0,0\n"


def test_trajectory_ndjson():
    lines = serialize_results(zero_trajectory(), "ndjson").decode().splitlines()
    rec = json.loads(lines[0])
    assert rec["t"] == 0.0
    assert rec["c_eg_re"] == 1.0
    assert rec["concurrence"] == 0.0


def test_float_rendering_17_digits():
    traj = trajectory(build_heff(ZERO_SET), INITIAL_EG, [1.0 / 3.0])
    data = serialize_results(traj, "csv").decode()
    assert "0.33333333333333331" in data


def test_sweep_csv_grid_major_order():
    grid = SweepGrid(
        np.array([0.5, 1.5]), np.array([0.0, 2.0]),
        np.array([[0.1, 0.2], [0.3, 0.4]]), SweepMetadata("x", 0.0, 1.0, "eg"),
    )
    rows = serialize_results(grid, "csv").decode().splitlines()
    assert rows[0] == "phi,t,concurrence"
    assert rows[1].startswith("0.5,0,")
    assert rows[2].startswith("0.5,2,")
    assert rows[3].startswith("1.5,0,")


def test_coeff_table_serialization():
    rows = serialize_results([(0.5, ZERO_SET)], "csv").decode().splitlines()
    assert rows[0] == "phi,delta_a,delta_b,gamma_a,gamma_b,gcoll_re,gcoll_im,g_re,g_im"
    assert rows[1] == "0.5,0,0,0,0,0,0,0,0"


def test_serialize_rejects_unknown():
    with pytest.raises(TypeError):
        serialize_results(object(), "csv")
    with pytest.raises(ValueError):
        serialize_results(zero_trajectory(), "yaml")


# --- SVG --------------------------------------------------------------------


def one_cell_grid(value):
    return SweepGrid(np.array([0.0]), np.array([0.0]), np.array([[value]]),
                     SweepMetadata("x", 0.0, 1.0, "eg"))


def test_svg_colormap_anchors():
    assert b"rgb(13,8,135)" in render_svg_heatmap(one_cell_grid(0.0))
    assert b"rgb(204,71,120)" in render_svg_heatmap(one_cell_grid(0.5))
    assert b"rgb(240,249,33)" in render_svg_heatmap(one_cell_grid(1.0))


def test_svg_structure():
    grid = SweepGrid(np.array([0.0, math.pi]), np.array([0.0, 5.0]),
                     np.array([[0.0, 0.25], [0.75, 1.0]]),
                     SweepMetadata("x", 0.0, 1.0, "eg"))
    svg = render_svg_heatmap(grid).decode()
    assert svg.count("<rect") == 2 * 2 + 2  # cells + background + frame
    assert "&#947;t" in svg  # gamma t axis label
    assert "&#966;/&#960;" in svg  # phi/pi axis label
    assert ">5<" in svg  # t upper bound tick
    assert ">1<" in svg  # phi/pi upper bound tick
    assert render_svg_heatmap(grid) == render_svg_heatmap(grid)


def test_svg_rejects_empty():
    grid = SweepGrid(np.empty(0), np.empty(0), np.empty((0, 0)),
                     SweepMetadata("x", 0.0, 1.0, "eg"))
    with pytest.raises(ValueError):
        render_svg_heatmap(grid)


# --- CLI --------------------------------------------------------------------


def test_cli_sweep_writes_csv(tmp_path):
    out = tmp_path / "fb.csv"
    code = cli_main(["sweep", "--preset", "fully_braided", "--chi", "0",
                     "--phi", "0:6.283:5", "--t", "0:10:5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "phi,t,concurrence"
    assert len(lines) == 1 + 25


def test_cli_byte_determinism(tmp_path):
    args = ["sweep", "--preset", "separated", "--chi", "0.5",
            "--phi", "0:6.283:7", "--t", "0:20:9", "--format", "ndjson"]
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_coeffs_decoupling_row(tmp_path):
    out = tmp_path / "c.csv"
    code = cli_main(["coeffs", "--preset", "separated", "--phi", "2.0943951023931953",
                     "--chi", "0", "--out", str(out)])
    assert code == 0
    header, row = out.read_text().splitlines()
    vals = dict(zip(header.split(","), (float(v) for v in row.split(","))))
    # lamb shifts survive the decoupling phase; every decay/coupling entry dies
    assert vals["delta_a"] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    for key in ("gamma_a", "gamma_b", "gcoll_re", "gcoll_im", "g_re", "g_im"):
        assert abs(vals[key]) < 1e-12


def test_cli_find_max_cascade_null(tmp_path):
    out = tmp_path / "m.ndjson"
    code = cli_main(["find-max", "--preset", "separated", "--chi", "1",
                     "--initial", "ge", "--format", "ndjson", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["c_max"] < 1e-12


def test_cli_find_max_fb(tmp_path):
    out = tmp_path / "m.ndjson"
    code = cli_main(["find-max", "--preset", "fully_braided", "--chi", "0",
                     "--format", "ndjson", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["c_max"] == pytest.approx(1.0, abs=1e-4)


def test_cli_evolve_decoupled(tmp_path):
    out = tmp_path / "e.csv"
    code = cli_main(["evolve", "--preset", "separated", "--phi", "2.0943951023931953",
                     "--t", "0:5:6", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 6
    for row in rows:
        t, eg_re, eg_im, ge_re, ge_im, conc = (float(v) for v in row.split(","))
        assert eg_re**2 + eg_im**2 == pytest.approx(1.0, abs=1e-9)
        assert abs(conc) < 1e-12


def test_cli_svg_output(tmp_path):
    out = tmp_path / "fb.svg"
    code = cli_main(["sweep", "--preset", "fully_braided", "--phi", "0:6.283:9",
                     "--t", "0:10:9", "--format", "svg", "--out", str(out)])
    assert code == 0
    assert out.read_bytes().startswith(b"<svg")


def test_cli_svg_only_for_sweeps(tmp_path):
    code = cli_main(["evolve", "--preset", "separated", "--phi", "1.0",
                     "--format", "svg", "--out", str(tmp_path / "x.svg")])
    assert code == 1


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"layout":"separated","chi":1.0,"phi":0.0,"time":{"start":0,"stop":5,"count":6}}')
    out = tmp_path / "traj.csv"
    code = cli_main(["evolve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 7


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"layout":"separated","chi":0.0,"phi":0.0}')
    out = tmp_path / "o.ndjson"
    code = cli_main(["find-max", "--config", str(cfg), "--chi", "1",
                     "--initial", "ge", "--format", "ndjson", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["c_max"] < 1e-12


def test_cli_validation_errors_exit_1(tmp_path, capsys):
    assert cli_main(["sweep", "--preset", "separated", "--chi", "1.5"]) == 1
    assert cli_main(["sweep"]) == 1  # no layout given
    assert cli_main(["evolve", "--preset", "separated"]) == 1  # phi is a grid
    assert cli_main(["bogus-command"]) == 1
    assert cli_main([]) == 1
    capsys.readouterr()


def test_cli_io_error_exit_2(tmp_path):
    code = cli_main(["coeffs", "--preset", "separated", "--phi", "1.0",
                     "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == 2


def test_cli_unreadable_config_exit_2(tmp_path):
    assert cli_main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_numerical_failure_exit_3(monkeypatch, tmp_path):
    import giantatoms.io_cli as io_cli

    def boom(*args, **kwargs):
        raise PhysicalityError("synthetic failure")

    monkeypatch.setattr(io_cli, "build_heff", boom)
    code = cli_main(["evolve", "--preset", "separated", "--phi", "1.0",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_cli_stdout_output(capsysbinary):
    code = cli_main(["coeffs", "--preset", "separated", "--phi", "1.0"])
    assert code == 0
    captured = capsysbinary.readouterr()
    assert captured.out.startswith(b"phi,delta_a")


def test_experiment_spec_defaults():
    spec = ExperimentSpec(preset=Preset.SEPARATED)
    assert spec.gamma == 1.0
    assert spec.chi == 0.0
    assert spec.initial == "eg"
    assert spec.fmt == "csv"
    assert spec.time == GridRange(0.0, 50.0, 2001)
    assert spec.phi == GridRange(0.0, TAU, 2001)


@pytest.mark.parametrize("flag, value, field, doc_value", [
    ("--gamma", "inf", "gamma", math.inf),
    ("--chi", "nan", "chi", math.nan),
    ("--phi", "inf", "phi", math.inf),
    ("--phi", "0:nan:3", "phi", {"start": 0, "stop": math.nan, "count": 3}),
    ("--t", "0:nan:3", "time", {"start": 0, "stop": math.nan, "count": 3}),
    ("--t", "0:5:2.5", "time", {"start": 0, "stop": 5, "count": 2.5}),
    ("--initial", "nan,0,0,1", "initial", [math.nan, 0, 0, 1]),
    ("--window", "inf", "window", math.inf),
    ("--tol", "nan", "tol", math.nan),
    ("--chis", "0,nan", "chis", [0, math.nan]),
])
def test_cli_flag_and_config_reject_alike(tmp_path, capsys, flag, value, field, doc_value):
    out = tmp_path / "x.csv"
    base = ["coeffs", "--preset", "separated", "--phi", "1.0", "--out", str(out)]
    assert cli_main(base + [flag, value]) == 1
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"layout": "separated", "phi": 1.0, field: doc_value}))
    assert cli_main(["coeffs", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    capsys.readouterr()


def test_cli_rate_overflow_is_validation_error(tmp_path, capsys):
    out = tmp_path / "e.csv"
    code = cli_main(["evolve", "--preset", "separated", "--phi", "1.0", "--gamma", "1e200",
                     "--t", "0:5:6", "--out", str(out)])
    assert code == 1
    assert "overflow" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("args", [
    ["evolve", "--preset", "separated", "--phi", "1.0", "--gamma", "1e154", "--t", "0:5:6"],
    ["sweep", "--preset", "separated", "--phi", "0:6.283:5", "--t", "0:1e308:3"],
])
def test_cli_non_finite_result_is_not_emitted(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    assert cli_main(args + ["--out", str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_calibrate_needs_no_layout(monkeypatch, tmp_path):
    import giantatoms.io_cli as io_cli
    from giantatoms.experiments import CalibrationResult

    calls = []

    def stub(**kwargs):
        calls.append(kwargs)
        return CalibrationResult({}, {})

    monkeypatch.setattr(io_cli, "calibrate_presets", stub)
    out = tmp_path / "calibration.ndjson"
    assert cli_main(["calibrate", "--format", "ndjson", "--out", str(out)]) == 0
    assert cli_main(["calibrate", "--preset", "separated", "--format", "ndjson", "--out", str(out)]) == 0
    assert calls == [{"gamma_total": 1.0, "t_horizon": 50.0}] * 2
