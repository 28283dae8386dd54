import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from giantatoms import (
    AmplitudePair,
    CalibrationResult,
    ChiralityScanResult,
    CoefficientSet,
    GridRange,
    INITIAL_EG,
    InitialStateComparison,
    MaxResult,
    PhaseKind,
    PhysicalityError,
    Preset,
    SpecialPhase,
    Trajectory,
    build_heff,
    cli_main,
    coefficients,
    parse_experiment_config,
    render_svg_heatmap,
    serialize_results,
    serialize_spec,
    trajectory,
)
from giantatoms.dynamics import _times
from giantatoms.experiments import ConfigCalibration, SweepGrid, layout_from_pattern
from giantatoms.io_cli import (
    ConfigSyntaxError,
    ConfigValidationError,
    ExperimentSpec,
    _COMMANDS,
    _KNOWN_FIELDS,
    _emit_json,
    _parse_argv,
    _require_finite,
    _spec_from_args,
    _spec_from_document,
)
from giantatoms.model import ChiralitySpec, InitialState, make_layout, make_preset, rates_from_chirality

TAU = 2 * math.pi
ZERO_SET = CoefficientSet(0.0, 0.0, 0.0, 0.0, 0j, 0j)


# --- config parsing ---------------------------------------------------------


def test_parse_preset_spec():
    spec = parse_experiment_config('{"layout":"fully_braided","chi":1.0,"phi":1.0471975512}')
    assert spec.layout == make_preset(Preset.FULLY_BRAIDED)
    assert spec.chirality == ChiralitySpec(1.0, 1.0)
    assert spec.phi == pytest.approx(math.pi / 3, abs=1e-9)
    assert spec.initial is INITIAL_EG
    assert spec.time == GridRange(0.0, 50.0, 2001)


def test_parse_custom_layout_defaults():
    spec = parse_experiment_config('{"layout":{"a":[0,1,3],"b":[2,4,5]}}')
    assert spec.layout == make_layout((0, 1, 3), (2, 4, 5))
    assert spec.layout.positions_a == (0, 1, 3)
    assert spec.phi == GridRange(0.0, TAU, 2001)


def test_preset_and_its_positions_give_equal_specs():
    # the spec holds the layout, not the words that named it
    preset = parse_experiment_config('{"layout":"partially_nested"}')
    positions = parse_experiment_config('{"layout":{"a":[4,0,1],"b":[2,3,5]}}')
    assert preset == positions
    assert serialize_spec(preset) == serialize_spec(positions)


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


def test_cli_rejects_steady_state_window(tmp_path, capsys):
    # no command reads a steady-state window or tolerance, so neither is a field
    cfg = tmp_path / "run.json"
    cfg.write_text('{"layout":"separated","phi":1.0,"window":10.0}')
    assert cli_main(["coeffs", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "validation error: invalid field 'window': unknown field\n"


@pytest.mark.parametrize("text, field", [
    ('[{"layout":"separated"}]', "document"),
    ('{"layout":"separated","chis":[]}', "chis"),
    ('{"layout":"separated","out":3}', "out"),
])
def test_parse_rejects_malformed_documents(text, field):
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config(text)
    assert err.value.field == field


@pytest.mark.parametrize("field", sorted(_KNOWN_FIELDS))
def test_parse_rejects_null_in_every_field(field):
    # no flag writes null, so no document field takes it either: a field is
    # given or left out for its default
    with pytest.raises(ConfigValidationError, match=f"^invalid field '{field}': must not be null") as err:
        parse_experiment_config(json.dumps({"layout": "separated", field: None}))
    assert err.value.field == field


def test_emit_json_null_and_unsupported_values():
    assert _emit_json({"x": None, "y": [None, 1.0]}) == '{"x":null,"y":[null,1.0]}'
    with pytest.raises(TypeError, match="cannot serialize complex"):
        _emit_json([1j])


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_parse_rejects_missing_layout(monkeypatch, tmp_path, capsys, command):
    # parse_experiment_config reads a document as --config does: a missing
    # layout is an error where a study asks for the layout, which every
    # command but calibrate does
    import giantatoms.io_cli as io_cli

    assert parse_experiment_config('{"gamma":1.0}').layout is None
    cfg = tmp_path / "run.json"
    cfg.write_text('{"gamma":1.0}')
    monkeypatch.setattr(io_cli, "calibrate_presets", lambda: CalibrationResult({}, {}))
    out = tmp_path / "x.csv"
    code = cli_main([command, "--config", str(cfg), "--out", str(out)])
    if command == "calibrate":
        assert code == 0
    else:
        assert code == 1
        assert capsys.readouterr().err == ("validation error: invalid field 'layout': "
                                           "required: give a config layout, --preset or --layout-a/--layout-b\n")
        assert not out.exists()


@pytest.mark.parametrize("field, doc, build", [
    ("gamma", {"gamma": -1}, lambda: ChiralitySpec(-1.0)),
    ("gamma", {"gamma": 0}, lambda: ChiralitySpec(0.0)),
    ("chi", {"chi": 1.5}, lambda: ChiralitySpec(1.0, 1.5)),
    ("chis", {"chis": [0, 2]}, lambda: ChiralitySpec(1.0, 2.0)),
    ("time.start", {"time": {"start": -1, "stop": 5, "count": 3}}, lambda: _times("time.start", -1.0)),
    ("initial", {"initial": [1, 0, 1, 0]}, lambda: InitialState(1.0 + 0j, 1.0 + 0j)),
    ("layout", {"layout": {"a": [0, 1, 2], "b": [2, 3, 4]}}, lambda: make_layout((0, 1, 2), (2, 3, 4))),
    ("layout", {"layout": "bogus"}, lambda: Preset("bogus")),
])
def test_config_field_reports_the_error_of_the_type_it_builds(tmp_path, capsys, field, doc, build):
    # each range rule is stated once, by the model type the field builds
    with pytest.raises(ValueError) as direct:
        build()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"layout": "separated", "phi": 1.0, **doc}))
    assert cli_main(["coeffs", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"validation error: invalid field '{field}': {direct.value}\n"


def test_parse_rejects_unnormalized_initial():
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config('{"layout":"separated","initial":[1,0,1,0]}')
    assert err.value.field == "initial"


def test_parse_rejects_bad_grid():
    with pytest.raises(ConfigValidationError):
        parse_experiment_config('{"layout":"separated","time":{"start":-1,"stop":5,"count":10}}')
    with pytest.raises(ConfigValidationError):
        parse_experiment_config('{"layout":"separated","phi":{"start":0,"stop":1}}')
    with pytest.raises(ConfigValidationError, match="must be finite") as err:
        parse_experiment_config('{"layout":"separated","time":{"start":0,"stop":1%s,"count":3}}' % ("0" * 400))
    assert err.value.field == "time.stop"
    with pytest.raises(ConfigValidationError) as err:
        parse_experiment_config('{"layout":"separated","time":{"start":0,"stop":1,"count":%d}}' % 10**21)
    assert err.value.field == "time.count"
    # an integer beyond the float range, outside a grid too
    with pytest.raises(ConfigValidationError, match="must be finite") as err:
        parse_experiment_config('{"layout":"separated","gamma":1%s}' % ("0" * 400))
    assert err.value.field == "gamma"


@pytest.mark.parametrize("text", [
    '{"layout":"fully_braided","chi":1.0,"phi":1.0471975512}',
    '{"layout":{"a":[0,1,3],"b":[2,4,5]}}',
    '{"layout":"separated","gamma":2.5,"chi":0.25,"phi":{"start":0,"stop":3.14,"count":11},'
    '"time":{"start":0,"stop":12.5,"count":26},"initial":[0.6,0,0,0.8],'
    '"chis":[0,0.5,1],"out":"x.csv","format":"ndjson"}',
])
def test_spec_round_trip(text):
    spec = parse_experiment_config(text)
    again = parse_experiment_config(serialize_spec(spec).decode())
    assert again == spec


def test_spec_without_layout_round_trips():
    assert _spec_from_document(json.loads(serialize_spec(ExperimentSpec()))) == ExperimentSpec()
    assert json.loads(serialize_spec(ExperimentSpec()))["chis"] == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_serialize_spec_is_deterministic():
    spec = parse_experiment_config('{"layout":"separated","gamma":0.1}')
    assert serialize_spec(spec) == serialize_spec(spec)


def test_serialize_spec_writes_positions_and_four_numbers():
    doc = json.loads(serialize_spec(parse_experiment_config('{"layout":"separated","initial":"ge"}')))
    assert doc["layout"] == {"a": [0, 1, 2], "b": [3, 4, 5]}
    assert doc["initial"] == [0.0, 0.0, 1.0, 0.0]


# one run per command but calibrate: a custom layout, a complex start and a
# rate other than the default
@pytest.mark.parametrize("argv", [
    ["coeffs", "--phi", "0:6.283185307179586:9"],
    ["evolve", "--phi", "1.0", "--t", "0:5:11"],
    ["sweep", "--phi", "0:3.14:5", "--t", "0:5:6", "--format", "ndjson"],
    ["find-max", "--phi", "0:6.283185307179586:21", "--chi", "0.3", "--t", "0:20:3"],
    ["special-phases", "--chi", "0.5"],
    ["chirality-scan", "--phi", "1.0", "--t", "0:5:6", "--chis", "0,0.5,1"],
    ["compare-initial", "--phi", "-0.0:3.14:5", "--t", "0:5:6"],
])
def test_serialized_spec_reproduces_the_run(tmp_path, capsysbinary, argv):
    argv = argv + ["--layout-a", "4,0,2", "--layout-b", "1,3,5", "--gamma", "2.5", "--initial", "-0.36,0.48,0,-0.8"]
    _, texts = _parse_argv(argv)
    cfg = tmp_path / "run.json"
    cfg.write_bytes(serialize_spec(_spec_from_args(texts)))
    assert cli_main(argv) == 0
    from_flags = capsysbinary.readouterr().out
    assert cli_main([argv[0], "--config", str(cfg)]) == 0
    assert capsysbinary.readouterr().out == from_flags


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
        np.array([[0.1, 0.2], [0.3, 0.4]]),
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


# Hand-built results carrying the float edge cases of the output format:
# -0.0 (CSV "-0", NDJSON "-0.0"), the smallest subnormal, 2**53 (an integral
# float: NDJSON appends ".0") and 1e20 (exponent form, no suffix).
def edge_trajectory(times):
    times = np.asarray(times)
    amps = np.array([[complex(-0.0, 1 / 3), complex(2.0**53, 5e-324)]] * times.size)
    return Trajectory(times, amps, np.full(times.size, 1e20))


def edge_results():
    coeff = CoefficientSet(-0.0, 5e-324, 2.0**53, 1e20, complex(-0.0, 1 / 3), complex(0.5, -2.0))
    grid_a = SweepGrid(np.array([-0.0, 2.0**53]), np.array([5e-324, 1e20]),
                       np.array([[1 / 3, -0.0], [0.5, 1e20]]))
    grid_b = SweepGrid(grid_a.phi_values, grid_a.t_values,
                       np.array([[-0.0, 5e-324], [1.5, 2.0**53]]))
    separated = ConfigCalibration("aaabbb", -0.0, {"nonchiral_eg": 5e-324, "chiral_ge": 1e20},
                                  {"nonchiral_eg": 2.0**53, "chiral_ge": 1 / 3}, True, False, True)
    braided = ConfigCalibration("ababab", 1 / 3, {"x": -0.0}, {"x": 1e20}, False, True, False)
    return {
        "sweep": grid_a,
        "trajectory": edge_trajectory([-0.0, 5e-324]),
        "coefficient_list": [(-0.0, coeff), (2.0**53, coeff)],
        "max": MaxResult(1 / 3, -0.0, 1e20, AmplitudePair(complex(5e-324, -0.0), complex(2.0**53, 0.5))),
        "chirality_scan": ChiralityScanResult(
            (-0.0, 1.0), (edge_trajectory([0.0]), edge_trajectory([1.0, 2.0**53]))),
        "comparison": InitialStateComparison(grid_a, grid_b, 1e20),
        "calibration": CalibrationResult({"separated": separated, "fully_braided": braided}, {}),
        "special_phases": [SpecialPhase(-0.0, PhaseKind.DECOUPLED),
                           SpecialPhase(2.0**53, PhaseKind.DARK_STATE)],
        "empty": [],
    }


_TINY = b"4.9406564584124654e-324"
_AMPS_CSV = b"-0,0.33333333333333331,9007199254740992," + _TINY + b",1e+20\n"
_AMPS_JSON = (b'"c_eg_re":-0.0,"c_eg_im":0.33333333333333331,"c_ge_re":9007199254740992.0,'
              b'"c_ge_im":' + _TINY + b',"concurrence":1e+20}\n')
_COEFF_CSV = b"-0," + _TINY + b",9007199254740992,1e+20,-0,0.33333333333333331,0.5,-2\n"
_COEFF_JSON = (b'"delta_a":-0.0,"delta_b":' + _TINY + b',"gamma_a":9007199254740992.0,"gamma_b":1e+20,'
               b'"gcoll_re":-0.0,"gcoll_im":0.33333333333333331,"g_re":0.5,"g_im":-2.0}\n')

PINNED_BYTES = {
    ("sweep", "csv"):
        b"phi,t,concurrence\n"
        b"-0," + _TINY + b",0.33333333333333331\n"
        b"-0,1e+20,-0\n"
        b"9007199254740992," + _TINY + b",0.5\n"
        b"9007199254740992,1e+20,1e+20\n",
    ("sweep", "ndjson"):
        b'{"phi":-0.0,"t":' + _TINY + b',"concurrence":0.33333333333333331}\n'
        b'{"phi":-0.0,"t":1e+20,"concurrence":-0.0}\n'
        b'{"phi":9007199254740992.0,"t":' + _TINY + b',"concurrence":0.5}\n'
        b'{"phi":9007199254740992.0,"t":1e+20,"concurrence":1e+20}\n',
    ("trajectory", "csv"):
        b"t,c_eg_re,c_eg_im,c_ge_re,c_ge_im,concurrence\n"
        b"-0," + _AMPS_CSV + _TINY + b"," + _AMPS_CSV,
    ("trajectory", "ndjson"):
        b'{"t":-0.0,' + _AMPS_JSON + b'{"t":' + _TINY + b"," + _AMPS_JSON,
    ("coefficient_list", "csv"):
        b"phi,delta_a,delta_b,gamma_a,gamma_b,gcoll_re,gcoll_im,g_re,g_im\n"
        b"-0," + _COEFF_CSV + b"9007199254740992," + _COEFF_CSV,
    ("coefficient_list", "ndjson"):
        b'{"phi":-0.0,' + _COEFF_JSON + b'{"phi":9007199254740992.0,' + _COEFF_JSON,
    ("max", "csv"):
        b"c_max,phi_star,t_star,c_eg_re,c_eg_im,c_ge_re,c_ge_im\n"
        b"0.33333333333333331,-0,1e+20," + _TINY + b",-0,9007199254740992,0.5\n",
    ("max", "ndjson"):
        b'{"c_max":0.33333333333333331,"phi_star":-0.0,"t_star":1e+20,"c_eg_re":' + _TINY
        + b',"c_eg_im":-0.0,"c_ge_re":9007199254740992.0,"c_ge_im":0.5}\n',
    ("chirality_scan", "csv"):
        b"chi,t,c_eg_re,c_eg_im,c_ge_re,c_ge_im,concurrence\n"
        b"-0,0," + _AMPS_CSV + b"1,1," + _AMPS_CSV + b"1,9007199254740992," + _AMPS_CSV,
    ("chirality_scan", "ndjson"):
        b'{"chi":-0.0,"t":0.0,' + _AMPS_JSON + b'{"chi":1.0,"t":1.0,' + _AMPS_JSON
        + b'{"chi":1.0,"t":9007199254740992.0,' + _AMPS_JSON,
    ("comparison", "csv"):
        b"phi,t,c_from_eg,c_from_ge,abs_diff\n"
        b"-0," + _TINY + b",0.33333333333333331,-0,0.33333333333333331\n"
        b"-0,1e+20,-0," + _TINY + b"," + _TINY + b"\n"
        b"9007199254740992," + _TINY + b",0.5,1.5,1\n"
        b"9007199254740992,1e+20,1e+20,9007199254740992,9.9990992800745259e+19\n",
    ("comparison", "ndjson"):
        b'{"phi":-0.0,"t":' + _TINY + b',"c_from_eg":0.33333333333333331,"c_from_ge":-0.0,'
        b'"abs_diff":0.33333333333333331}\n'
        b'{"phi":-0.0,"t":1e+20,"c_from_eg":-0.0,"c_from_ge":' + _TINY + b',"abs_diff":' + _TINY + b"}\n"
        b'{"phi":9007199254740992.0,"t":' + _TINY + b',"c_from_eg":0.5,"c_from_ge":1.5,"abs_diff":1.0}\n'
        b'{"phi":9007199254740992.0,"t":1e+20,"c_from_eg":1e+20,"c_from_ge":9007199254740992.0,'
        b'"abs_diff":9.9990992800745259e+19}\n'
        b'{"max_abs_diff":1e+20}\n',
    ("calibration", "csv"):
        b"config,ordering,score,unresolved,matches_default,target,computed,residual\n"
        b"separated,aaabbb,-0,false,true,nonchiral_eg,9007199254740992," + _TINY + b"\n"
        b"separated,aaabbb,-0,false,true,chiral_ge,0.33333333333333331,1e+20\n"
        b"fully_braided,ababab,0.33333333333333331,true,false,x,1e+20,-0\n",
    ("calibration", "ndjson"):
        b'{"config":"separated","ordering":"aaabbb","score":-0.0,"unresolved":false,"matches_default":true,'
        b'"values":{"nonchiral_eg":9007199254740992.0,"chiral_ge":0.33333333333333331},'
        b'"residuals":{"nonchiral_eg":' + _TINY + b',"chiral_ge":1e+20}}\n'
        b'{"config":"fully_braided","ordering":"ababab","score":0.33333333333333331,"unresolved":true,'
        b'"matches_default":false,"values":{"x":1e+20},"residuals":{"x":-0.0}}\n',
    ("special_phases", "csv"): b"phi,kind\n-0,decoupled\n9007199254740992,dark_state\n",
    ("special_phases", "ndjson"):
        b'{"phi":-0.0,"kind":"decoupled"}\n{"phi":9007199254740992.0,"kind":"dark_state"}\n',
    ("empty", "csv"): b"phi,kind\n",
    ("empty", "ndjson"): b"\n",
}


@pytest.mark.parametrize("name, fmt", sorted(PINNED_BYTES))
def test_serialized_bytes_are_pinned(name, fmt):
    assert serialize_results(edge_results()[name], fmt) == PINNED_BYTES[name, fmt]


def test_finite_check_reads_every_emitted_number():
    for result in edge_results().values():
        _require_finite(result)
    # calibration NDJSON nests values/residuals; the CSV table carries them
    cal = ConfigCalibration("aaabbb", 0.0, {"x": 0.0}, {"x": math.inf}, True, False, True)
    for bad in (CalibrationResult({"separated": cal}, {}), edge_trajectory([math.nan])):
        with pytest.raises(ValueError, match="overflow"):
            _require_finite(bad)


def test_serialize_rejects_unknown():
    with pytest.raises(TypeError):
        serialize_results(object(), "csv")
    with pytest.raises(ValueError):
        serialize_results(zero_trajectory(), "yaml")


# --- SVG --------------------------------------------------------------------


def one_cell_grid(value):
    return SweepGrid(np.array([0.0]), np.array([0.0]), np.array([[value]]))


def test_svg_colormap_anchors():
    assert b"rgb(13,8,135)" in render_svg_heatmap(one_cell_grid(0.0))
    assert b"rgb(204,71,120)" in render_svg_heatmap(one_cell_grid(0.5))
    assert b"rgb(240,249,33)" in render_svg_heatmap(one_cell_grid(1.0))


def test_svg_structure():
    grid = SweepGrid(np.array([0.0, math.pi]), np.array([0.0, 5.0]),
                     np.array([[0.0, 0.25], [0.75, 1.0]]))
    svg = render_svg_heatmap(grid).decode()
    assert svg.count("<rect") == 2 * 2 + 2  # cells + background + frame
    assert "&#947;t" in svg  # gamma t axis label
    assert "&#966;/&#960;" in svg  # phi/pi axis label
    assert ">5<" in svg  # t upper bound tick
    assert ">1<" in svg  # phi/pi upper bound tick
    assert render_svg_heatmap(grid) == render_svg_heatmap(grid)


def test_svg_rejects_empty():
    grid = SweepGrid(np.empty(0), np.empty(0), np.empty((0, 0)))
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


def test_cli_special_phases_snap_zero(tmp_path):
    # roundoff puts the separated layout's first dark root at 3.2e-16: it reads 0
    out = tmp_path / "s.csv"
    assert cli_main(["special-phases", "--preset", "separated", "--chi", "0", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0,dark_state"


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


@pytest.mark.parametrize("preset, gamma", [("partially_braided", "1"), ("fully_nested", "1"), ("fully_nested", "2.5")],
                         ids=["partially_braided", "fully_nested", "fully_nested-gamma2.5"])
def test_cli_sweep_prints_the_concurrence_evolve_prints(capsysbinary, preset, gamma):
    # a one-phase sweep is a block of one row; each of its cells must print
    # the bits evolve prints at that phase, here from a start whose four
    # parts are all nonzero, so that no complex product is exact, and at a
    # rate whose products with the times are rounded
    args = ["--preset", preset, "--chi", "0.37", "--phi", "1.3", "--t", "0:50:2001", "--initial=0.36,0.48,0.48,0.64",
            "--gamma", gamma]
    columns = []
    for command in ("sweep", "evolve"):
        assert cli_main([command, *args]) == 0
        columns.append([row.rsplit(b",", 1)[1] for row in capsysbinary.readouterr().out.splitlines()])
    assert columns[0][0] == columns[1][0] == b"concurrence"
    assert len(columns[0]) == 2002 and columns[0] == columns[1]


def test_cli_svg_output(tmp_path):
    out = tmp_path / "fb.svg"
    code = cli_main(["sweep", "--preset", "fully_braided", "--phi", "0:6.283:9",
                     "--t", "0:10:9", "--format", "svg", "--out", str(out)])
    assert code == 0
    assert out.read_bytes().startswith(b"<svg")


def test_cli_svg_only_for_sweeps(monkeypatch, tmp_path, capsys):
    # the format is rejected before the study runs
    import giantatoms.io_cli as io_cli

    out = tmp_path / "x.svg"
    for command, study in [("evolve", "_trajectory_at"), ("calibrate", "calibrate_presets"),
                           ("compare-initial", "compare_initial_states")]:
        monkeypatch.setattr(io_cli, study, lambda *args, study=study, **kwargs: pytest.fail(f"{study} ran"))
        code = cli_main([command, "--preset", "separated", "--phi", "1.0", "--format", "svg", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("validation error: invalid field 'format'")
        assert not out.exists()


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


def test_cli_layout_flag_sets_its_key_of_a_config_layout(tmp_path, capsysbinary):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"layout": {"a": [0, 1, 2], "b": [3, 4, 5]}, "phi": 1.0}')
    assert cli_main(["coeffs", "--config", str(cfg), "--layout-a", "0,1,6"]) == 0
    merged = capsysbinary.readouterr().out
    assert cli_main(["coeffs", "--phi", "1.0", "--layout-a", "0,1,6", "--layout-b", "3,4,5"]) == 0
    assert capsysbinary.readouterr().out == merged
    # over a preset name there is no key to set: the half layout is rejected
    cfg.write_text('{"layout": "separated", "phi": 1.0}')
    assert cli_main(["coeffs", "--config", str(cfg), "--layout-a", "0,1,6"]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.startswith(b"validation error: invalid field 'layout': expected a preset name")


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
    # a decay matrix reported unphysical: heff_entries raises, as it would for
    # a real PSD failure
    import giantatoms.dynamics as dynamics

    monkeypatch.setattr(dynamics, "psd_mask", lambda *coefs: np.zeros(np.shape(coefs[0]), dtype=bool))
    code = cli_main(["evolve", "--preset", "separated", "--phi", "1.0",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_cli_near_one_atom_decoupling_phase_exit_0(tmp_path):
    # 2.4e-9 from 2pi/3, where G_b of this layout rounds to -1e-16 while
    # |G_coll| is about 2e-9: a physical input, not a PSD failure
    out = tmp_path / "e.csv"
    code = cli_main(["evolve", "--layout-a", "0,1,16", "--layout-b", "2,3,4", "--chi", "0.3",
                     "--phi", "2.0943951048", "--t", "0:1:3", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 3
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


@pytest.mark.parametrize("error, code", [(PhysicalityError, 3), (ValueError, 1)])
def test_calibration_worker_error_reaches_the_caller(monkeypatch, tmp_path, error, code):
    # the value-table searches run in forked workers, which inherit the patch
    import os

    from giantatoms import calibrate_presets, experiments

    def search(cfg, chirality, c0, *args, **kwargs):
        if cfg.positions_a == (0, 2, 4):
            raise error(f"synthetic failure in process {os.getpid()}")
        return MaxResult(0.5, 0.0, 0.0, None)

    monkeypatch.setattr(experiments, "find_max", search)
    with pytest.raises(error, match="synthetic failure in process") as caught:
        calibrate_presets()
    assert type(caught.value) is error
    assert str(caught.value) != f"synthetic failure in process {os.getpid()}"
    assert cli_main(["calibrate", "--out", str(tmp_path / "calibration.csv")]) == code
    assert not (tmp_path / "calibration.csv").exists()


def test_cli_import_leaves_multiprocessing_out():
    # every CLI start imports the package; only calibrate needs the pool,
    # scipy is not a declared dependency, and argv is parsed from io_cli's
    # own flag and command tables
    import os
    import subprocess
    import sys

    import giantatoms

    src = os.path.dirname(os.path.dirname(giantatoms.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import giantatoms.io_cli, sys; print([m in sys.modules for m in ('multiprocessing', 'scipy', 'argparse')])"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "[False, False, False]\n"


def test_python_m_entry_point_matches_cli_main(capsysbinary):
    # `python -m giantatoms` runs io_cli.main: the same bytes as cli_main for
    # the same arguments, and exit 1 for an unknown flag
    import os
    import subprocess
    import sys

    import giantatoms

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(giantatoms.__file__)))
    argv = ["coeffs", "--preset", "separated", "--phi", "1.0"]
    assert cli_main(argv) == 0
    expected = capsysbinary.readouterr().out
    run = subprocess.run([sys.executable, "-m", "giantatoms", *argv], env=env, capture_output=True, timeout=60)
    assert run.returncode == 0 and run.stdout == expected
    run = subprocess.run([sys.executable, "-m", "giantatoms", *argv, "--bogus", "1"], env=env,
                         capture_output=True, timeout=60)
    assert run.returncode == 1 and run.stdout == b""
    assert run.stderr.startswith(b"usage error: ")


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["-h"], 0),
    (["sweep", "--help"], 0),
    ([], 1),
    (["bogus-command"], 1),
    (["--preset", "separated", "coeffs"], 1),
    (["coeffs", "--bogus", "1"], 1),
    (["coeffs", "--pres", "separated"], 1),
    (["coeffs", "-x"], 1),
    (["coeffs", "--preset", "separated", "--phi"], 1),
    (["coeffs", "--preset", "separated", "stray"], 1),
], ids=["help", "h", "command-help", "empty", "unknown-command", "flag-before-command", "unknown-flag",
        "abbreviation", "short-flag", "missing-value", "positional"])
def test_cli_grammar(capsys, argv, code):
    # --help prints the usage line with every command, then the docstring and
    # each flag with its field; anything the grammar does not hold is a usage
    # error: its message and the usage line on stderr, nothing on stdout
    import giantatoms.io_cli as io_cli

    assert cli_main(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
        assert out.startswith("usage: giantatoms {%s} " % ",".join(io_cli._COMMANDS))
        flag_lines = {line.split()[0]: line for line in out.split("\nflags:\n", 1)[1].splitlines()}
        assert list(flag_lines) == [f"--{name}" for name, *_ in io_cli._FLAGS]
        for name, field, _, _ in io_cli._FLAGS:
            assert field is None or flag_lines[f"--{name}"].endswith(f"(field {field})")
    else:
        assert out == ""
        error, usage = err.splitlines()
        assert error.startswith("usage error: ")
        assert usage.startswith("usage: giantatoms {")


def test_cli_flag_takes_the_next_token_and_its_last_value(capsysbinary, tmp_path, monkeypatch):
    base = ["coeffs", "--phi", "1.0"]
    assert cli_main(base + ["--preset", "separated"]) == 0
    expected = capsysbinary.readouterr().out
    assert cli_main(base + ["--preset", "fully_braided", "--preset=separated"]) == 0
    assert capsysbinary.readouterr().out == expected
    monkeypatch.chdir(tmp_path)
    assert cli_main(base + ["--preset", "separated", "--out", "--help"]) == 0
    assert capsysbinary.readouterr().out == b""
    assert (tmp_path / "--help").read_bytes() == expected


def test_console_script_prints_help(monkeypatch, capsys):
    # the function pyproject.toml installs as the `giantatoms` command, read
    # from its text because Python 3.10 has no tomllib
    import importlib
    import re
    import sys
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, function = re.search(r'^\[project\.scripts\]\ngiantatoms = "([\w.]+):(\w+)"$', text, re.M).groups()
    monkeypatch.setattr(sys, "argv", ["giantatoms", "--help"])
    with pytest.raises(SystemExit) as exited:
        getattr(importlib.import_module(module), function)()
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: giantatoms {")


def test_cli_stdout_output(capsysbinary):
    code = cli_main(["coeffs", "--preset", "separated", "--phi", "1.0"])
    assert code == 0
    captured = capsysbinary.readouterr()
    assert captured.out.startswith(b"phi,delta_a")


def test_experiment_spec_defaults():
    assert ExperimentSpec().layout is None
    spec = ExperimentSpec(layout=make_preset(Preset.SEPARATED))
    assert spec.chirality == ChiralitySpec(1.0, 0.0)
    assert spec.initial is INITIAL_EG
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
    ("--chis", "0,nan", "chis", [0, math.nan]),
    ("--gamma", "abc", "gamma", "abc"),
    ("--gamma", "-inf", "gamma", -math.inf),
    ("--format", "xml", "format", "xml"),
])
def test_cli_flag_and_config_reject_alike(tmp_path, capsys, flag, value, field, doc_value):
    out = tmp_path / "x.csv"
    base = ["coeffs", "--preset", "separated", "--phi", "1.0", "--out", str(out)]
    assert cli_main(base + [flag, value]) == 1
    from_flag = capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"layout": "separated", "phi": 1.0, field: doc_value}))
    assert cli_main(["coeffs", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == from_flag
    assert from_flag.startswith(f"validation error: invalid field '{field}")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["evolve", "--preset", "separated", "--phi", "1.0", "--t", "0:2:3", "--initial", "-0.6,0,0,0.8"],
    ["coeffs", "--preset", "separated", "--phi", "-0.5"],
    ["coeffs", "--preset", "separated", "--phi", "-0.5:1:3"],
])
def test_cli_flag_value_may_start_with_dash(capsysbinary, args):
    assert cli_main(args) == 0
    spaced = capsysbinary.readouterr().out
    assert cli_main(args[:-2] + [f"{args[-2]}={args[-1]}"]) == 0
    assert capsysbinary.readouterr().out == spaced


def test_cli_find_max_reads_only_time_stop(tmp_path):
    # find-max searches its own time grid: time.count changes no byte
    outputs = []
    for t in ("0:50:7", "0:50:2001", "0:50:4001"):
        out = tmp_path / f"{t.replace(':', '_')}.csv"
        assert cli_main(["find-max", "--preset", "partially_nested", "--chi", "0.5", "--initial", "0.6,0,0,0.8",
                         "--t", t, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_find_max_rejects_time_start(capsysbinary, tmp_path):
    # find-max scans t over [0, time.stop]; another start is an error, not a
    # silent [0, time.stop] scan
    out = tmp_path / "x.csv"
    assert cli_main(["find-max", "--preset", "separated", "--t", "5:20:11"]) == 1
    assert cli_main(["find-max", "--preset", "separated", "--t", "5:20:11", "--out", str(out)]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert b"invalid field 'time.start'" in captured.err
    assert not out.exists()


def test_cli_find_max_rejects_a_zero_time_stop(capsysbinary):
    # find-max scans tau over [0, gamma * time.stop], which must hold more
    # than one time; the error names the field, not the library's t_horizon
    with pytest.raises(ValueError) as direct:
        _times("[0, gamma * time.stop]", (0.0, 0.0))
    assert cli_main(["find-max", "--preset", "separated", "--t", "0:0:1"]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err == f"validation error: invalid field 'time.stop': {direct.value}\n".encode()


def test_cli_find_max_rejects_a_tau_horizon_that_overflows(capsysbinary):
    # gamma * time.stop is checked where the spec is built, before the search
    # forms any time: past the float range it is a field error, not an
    # overflow in the middle of the scan
    assert cli_main(["find-max", "--preset", "partially_nested", "--gamma", "1e300", "--t", "0:1e10:2"]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err == (b"validation error: invalid field 'time.stop': gamma * time.stop must be finite "
                            b"and >= 0, got inf\n")


def _phi_for(command):
    """A --phi that the command takes: a number where it needs one phase."""
    return "1.0" if command in ("evolve", "chirality-scan") else "0:1:3"


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_cli_every_command_checks_the_tau_horizon(monkeypatch, capsysbinary, command):
    # every command checks gamma * time.stop where the spec is built, so a
    # horizon past the float range is a field error before any study runs,
    # never an overflow in the middle of one, whether or not it reads the times
    import giantatoms.io_cli as io_cli

    monkeypatch.setattr(io_cli, "calibrate_presets", lambda: CalibrationResult({}, {}))
    args = [command, "--preset", "partially_nested", "--gamma", "1e300", "--phi", _phi_for(command), "--t", "0:1e10:3"]
    assert cli_main(args) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err == (b"validation error: invalid field 'time.stop': gamma * time.stop must be finite "
                            b"and >= 0, got inf\n")


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_cli_every_command_runs_at_the_smallest_rate(monkeypatch, capsysbinary, command):
    # gamma is only a time scale and no command splits it into two rates, so
    # the smallest positive double is a valid rate for every command; the
    # special phases never see gamma
    import giantatoms.io_cli as io_cli

    monkeypatch.setattr(io_cli, "calibrate_presets", lambda: CalibrationResult({}, {}))
    args = [command, "--preset", "fully_braided", "--chi", "0.3", "--phi", _phi_for(command), "--t", "0:1:3"]
    assert cli_main(args + ["--gamma", "5e-324"]) == 0
    out = capsysbinary.readouterr().out
    cells = [cell for row in out.decode().splitlines()[1:] for cell in row.split(",")]
    numbers = [float(cell) for cell in cells if cell not in ("dark_state", "decoupled", "decoherence_free")]
    assert np.isfinite(numbers).all()
    if command == "special-phases":
        assert cli_main(args + ["--gamma", "1"]) == 0
        assert capsysbinary.readouterr().out == out


@pytest.mark.parametrize("k", [-500, -2, 2, 500])
def test_cli_coeffs_is_gamma_times_the_unit_table(capsysbinary, k):
    # coeffs evaluates the table at unit total rate and multiplies it by
    # gamma; at a power of two that product is exact, signed zeros included
    args = ["coeffs", "--preset", "partially_nested", "--chi", "0.3", "--phi", f"0:{TAU!r}:201"]
    assert cli_main(args + ["--gamma", "1"]) == 0
    header, *rows = capsysbinary.readouterr().out.decode().splitlines()
    expected = [header] + [",".join([phi] + ["%.17g" % (2.0**k * float(v)) for v in values])
                           for phi, *values in (row.split(",") for row in rows)]
    assert cli_main(args + ["--gamma", repr(2.0**k)]) == 0
    assert capsysbinary.readouterr().out.decode().splitlines() == expected


@pytest.mark.parametrize("command, flag, grid", [
    ("sweep", "--phi", "1:1:3"),
    ("evolve", "--t", "0:0:3"),
    ("find-max", "--phi", "1:1:5"),
])
def test_a_grid_of_several_points_needs_stop_above_start(tmp_path, capsys, command, flag, grid):
    # a grid with count > 1 and stop == start repeats one value; it is the
    # grid field's error, from a flag and from a config document alike
    field = {"--phi": "phi", "--t": "time"}[flag]
    start, stop, count = grid.split(":")
    fixed = [] if field == "phi" else ["--phi", "1.0"]
    assert cli_main([command, "--preset", "separated", *fixed, flag, grid]) == 1
    from_flag = capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"layout": "separated", "phi": 1.0,
                               field: {"start": float(start), "stop": float(stop), "count": int(count)}}))
    assert cli_main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == from_flag == (
        f"validation error: invalid field '{field}': stop must be > start for a count above 1\n")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the decay matrix is a Gram matrix, PSD for every layout, but its pair-distance sums drift below zero "
    "in proportion to the layout's span, past the PSD check's tolerance at a span of 774"))
def test_cli_does_not_call_a_psd_decay_matrix_unphysical(capsys):
    # exit 3 is for a genuine PSD failure only
    code = cli_main(["evolve", "--layout-a", "491,559,626", "--layout-b", "75,794,849", "--chi", "1",
                     "--phi", "5.761680926683681", "--t", "0:1:2"])
    capsys.readouterr()
    assert code != 3


@pytest.mark.parametrize("pattern", ["aaabbb", "ababab", "abbbaa", "aabbab"])
@pytest.mark.parametrize("chi", [0.0, 0.37, 1.0])
def test_cli_coeffs_rows_equal_one_phase_calls(capsysbinary, pattern, chi):
    # coeffs evaluates its whole phase grid in one array call; every row must
    # hold the bits of that phase evaluated alone
    cfg = layout_from_pattern(pattern)
    phis = np.linspace(0.0, TAU, 401)
    gr, gl = rates_from_chirality(ChiralitySpec(1.0, chi))
    expected = serialize_results([(float(p), coefficients(cfg, float(p), gr, gl)) for p in phis])
    layout = [f"--layout-a={','.join(map(str, cfg.positions_a))}",
              f"--layout-b={','.join(map(str, cfg.positions_b))}"]
    assert cli_main(["coeffs", *layout, "--chi", repr(chi), "--phi", f"0:{TAU!r}:401"]) == 0
    assert capsysbinary.readouterr().out == expected


# counts whose allocation is refused at once: 10**21 exceeds the index
# range, 2**57 float64 values need 1 EiB
@pytest.mark.parametrize("count, message", [
    (10**21, "validation error: invalid field 'time.count'"),
    (2**57, "out of memory: "),
])
def test_cli_grid_too_large_exits_1(tmp_path, capsys, count, message):
    out = tmp_path / "x.csv"
    args = ["evolve", "--preset", "separated", "--phi", "1.0", "--t", f"0:1:{count}", "--out", str(out)]
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["evolve", "--preset", "fully_nested", "--phi", "0", "--chi", "0", "--t", "0:50:6"],
    ["find-max", "--preset", "partially_nested", "--chi", "0.3"],
])
def test_cli_runs_at_a_huge_rate(capsysbinary, args):
    # no intermediate of the propagator overflows at gamma 1e170, where
    # products of two matrix entries would
    assert cli_main(args + ["--gamma", "1e170"]) == 0
    rows = capsysbinary.readouterr().out.decode().splitlines()
    values = np.array([row.split(",") for row in rows[1:]], dtype=float)
    assert np.all(np.isfinite(values))
    if args[0] == "evolve":  # the fully nested dark-state plateau of every rate scale
        assert values[1:, -1] == pytest.approx(0.5, abs=1e-15)


def test_cli_chirality_scan_default_chis(capsysbinary):
    base = ["chirality-scan", "--preset", "fully_braided", "--phi", "1.0471975511965976", "--t", "0:5:11"]
    assert cli_main(base) == 0
    default = capsysbinary.readouterr().out
    assert cli_main(base + ["--chis", "0,0.25,0.5,0.75,1"]) == 0
    assert capsysbinary.readouterr().out == default


def test_cli_rate_overflow_is_validation_error(tmp_path, capsys):
    # the coefficients stay finite at gamma 1e307, but (mu - s) t does not at t = 5
    out = tmp_path / "e.csv"
    code = cli_main(["evolve", "--preset", "separated", "--phi", "1.0", "--gamma", "1e307",
                     "--t", "0:5:6", "--out", str(out)])
    assert code == 1
    assert "overflow" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["evolve", "--preset", "separated", "--phi", "1.0", "--gamma", "1e307", "--t", "0:5:6"],
    ["sweep", "--preset", "separated", "--phi", "0:6.283:5", "--t", "0:1e308:3"],
])
def test_cli_non_finite_result_is_not_emitted(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    assert cli_main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "overflow" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_cli_calibrate_needs_no_layout(monkeypatch, tmp_path):
    import giantatoms.io_cli as io_cli
    from giantatoms.experiments import CalibrationResult

    calls = []

    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        return CalibrationResult({}, {})

    # calibrate searches at its targets' one setting: no study field reaches
    # it, not even a rate or a time grid that find-max would reject
    monkeypatch.setattr(io_cli, "calibrate_presets", stub)
    out = tmp_path / "calibration.ndjson"
    assert cli_main(["calibrate", "--format", "ndjson", "--out", str(out)]) == 0
    assert cli_main(["calibrate", "--preset", "separated", "--format", "ndjson", "--out", str(out)]) == 0
    assert cli_main(["calibrate", "--gamma", "2", "--t", "5:20:11", "--out", str(out)]) == 0
    assert calls == [((), {})] * 3


# --- flags and config documents accept and reject alike -----------------------

_NUMBER_TEXT = st.one_of(
    st.floats(-2.0, 8.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1", "3", "1e308", "abc", "", "1x"]),
)
_GRID_TEXT = st.one_of(
    st.tuples(_NUMBER_TEXT, _NUMBER_TEXT, st.sampled_from(["1", "4", "0", "-2", "2.5", "x"])).map(":".join),
    st.sampled_from(["1:2", "0:1:2:3", "::"]),
)
_RATE = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), st.floats(0.0, 1.0).map(repr),
                  st.sampled_from(["abc", "", "1x", "-inf"]))
_POSITIONS = st.one_of(
    st.lists(st.integers(-1, 6), min_size=2, max_size=4).map(lambda ps: ",".join(map(str, ps))),
    st.sampled_from(["0,1,x", "", "1.0,2,3"]),
)
_LAYOUT = st.one_of(
    st.permutations(range(6)).map(lambda ps: (",".join(map(str, ps[:3])), ",".join(map(str, ps[3:])))),
    st.tuples(_POSITIONS, st.one_of(st.none(), _POSITIONS)),
)
_FLAGS = st.fixed_dictionaries({}, optional={
    "preset": st.sampled_from(["separated", "fully_braided", "fully_nested", "custom", "bogus"]),
    "layout": _LAYOUT,
    "gamma": _RATE, "chi": _RATE,
    "phi": st.one_of(_NUMBER_TEXT, _GRID_TEXT),
    "t": _GRID_TEXT,
    "initial": st.one_of(st.sampled_from(["eg", "ge", "xy", "0.6,0,0,0.8", "1,0,1,0", "0,1,0", "0,0,0,1e308"]),
                         st.lists(_NUMBER_TEXT, min_size=4, max_size=4).map(",".join)),
    "chis": st.lists(_NUMBER_TEXT, min_size=1, max_size=3).map(",".join),
    "format": st.sampled_from(["csv", "svg", "xml"]),
})


def _document_number(text, convert=float):
    """The value a config document holds for a flag's number text."""
    try:
        return convert(text)
    except ValueError:
        return text


def _document_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        return text
    return {"start": _document_number(parts[0]), "stop": _document_number(parts[1]),
            "count": _document_number(parts[2], int)}


def _twin_document(flags: dict) -> dict:
    """The config document a user would write for the same flags: number
    text as JSON numbers, any other text as JSON strings; layout flags
    override a preset, as on the command line."""
    doc: dict = {}
    for name, value in sorted(flags.items(), key=lambda item: item[0] != "preset"):
        if name == "preset":
            doc["layout"] = value
        elif name == "layout":
            a, b = value
            doc["layout"] = {"a": [_document_number(v, int) for v in a.split(",")]}
            if b is not None:
                doc["layout"]["b"] = [_document_number(v, int) for v in b.split(",")]
        elif name in ("gamma", "chi"):
            doc[name] = _document_number(value)
        elif name == "phi":
            doc["phi"] = _document_grid(value) if ":" in value else _document_number(value)
        elif name == "t":
            doc["time"] = _document_grid(value)
        elif name == "initial":
            doc["initial"] = value if value in ("eg", "ge") else [_document_number(v) for v in value.split(",")]
        elif name == "format":
            doc["format"] = value
        else:
            doc[name] = [_document_number(v) for v in value.split(",")]
    return doc


def _spec_or_field(build):
    try:
        return build(), None
    except ConfigValidationError as exc:
        return None, exc.field


@settings(max_examples=300, deadline=None)
@given(flags=_FLAGS, spellings=st.lists(st.booleans(), min_size=10, max_size=10))
def test_flags_and_config_document_agree(flags, spellings):
    """A flag set and its config twin give the same spec or fail on the same
    field, whether a flag is spelled --flag=value or --flag value."""
    pairs = [(f"--{name}", value) for name, value in flags.items() if name != "layout"]
    if "layout" in flags:
        a, b = flags["layout"]
        pairs += [("--layout-a", a)] + ([("--layout-b", b)] if b is not None else [])
    argv = ["sweep"]
    for (flag, value), joined in zip(pairs, spellings):
        argv += [f"{flag}={value}"] if joined else [flag, value]
    _, texts = _parse_argv(argv)
    from_flags = _spec_or_field(lambda: _spec_from_args(texts))
    from_document = _spec_or_field(lambda: _spec_from_document(_twin_document(flags)))
    assert from_flags == from_document
