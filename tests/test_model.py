import configparser
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volclust.cli import main
from volclust.errors import ConfigError
from volclust.model import (Arctangent, Constant, ModelSpec, Tabulated,
                            arctangent_model, coefficient_from_string,
                            probe_grid, read_config, validate, write_config)


def test_demo_model_is_valid(demo_spec):
    assert validate(demo_spec).is_valid


def test_correlation_bound_is_strict(demo_spec):
    report = validate(demo_spec.with_(rho=1.0))
    assert not report.is_valid
    assert any("rho" in v for v in report.violations)


def test_negative_sigma1_rejected(demo_spec):
    report = validate(demo_spec.with_(sigma1=Constant(-0.1)))
    assert any("sigma1" in v for v in report.violations)


@pytest.mark.parametrize("field,value", [
    ("gamma", 0.0), ("epsilon", -1.0), ("strike", 0.0), ("maturity", -0.5),
])
def test_positive_scalars_enforced(demo_spec, field, value):
    assert not validate(demo_spec.with_(**{field: value})).is_valid


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_eta_must_be_finite(demo_spec, eta):
    assert validate(demo_spec.with_(eta=eta)).violations == (f"eta must be finite, got {eta}",)


@pytest.mark.parametrize("name", ["sigma1", "b"])
def test_a_table_holding_a_nan_is_not_finite_on_the_probe_grid(demo_spec, name):
    table = Tabulated(np.linspace(-8.0, 8.0, 5), np.array([0.3, 0.3, math.nan, 0.3, 0.3]))
    report = validate(demo_spec.with_(**{name: table}))
    assert report.violations == (f"{name} is not finite on the probe grid",)


def test_demo_coefficients_arctangent(demo_spec):
    assert demo_spec.sigma1(0.0) == pytest.approx(0.3, abs=1e-15)
    assert demo_spec.sigma2(0.0) == 0.2
    assert demo_spec.b(0.0) == 1.0
    assert demo_spec.sigma1(1e6) == pytest.approx(0.55, abs=1e-5)


def test_constant_everywhere():
    c = Constant(0.2)
    assert c(-17.0) == 0.2
    assert np.all(c(np.linspace(-5, 5, 11)) == 0.2)


def test_arctangent_monotone_and_bounded():
    f = Arctangent(0.3, 0.5)
    ys = np.linspace(-50, 50, 1001)
    vals = f(ys)
    assert np.all(np.diff(vals) > 0)
    assert vals.min() > 0.3 - 0.25 and vals.max() < 0.3 + 0.25


def test_tabulated_interpolation_and_flat_tails():
    t = Tabulated(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 2.0]))
    assert t(-1.0) == 1.0 and t(0.0) == 3.0 and t(2.0) == 2.0  # exact at nodes
    assert t(-0.5) == pytest.approx(2.0)                        # linear between
    assert t(-10.0) == 1.0 and t(10.0) == 2.0                   # flat outside


# each class's values on COEFFICIENT_NODES, as the scalar-or-array coefficients gave them
COEFFICIENT_NODES = np.array([-3.0, -0.5, 0.0, 0.25, 1.5, 4.0])
COEFFICIENT_VALUES = [
    pytest.param(Constant(0.2), [0.2] * 6, id="Constant"),
    pytest.param(Arctangent(0.3, 0.5), [0.10120819117478333, 0.22620819117478336, 0.3,
                                        0.33898956518868467, 0.45641647909450056,
                                        0.5110104348113154], id="Arctangent"),
    pytest.param(Tabulated(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 2.0])),
                 [1.0, 2.0, 3.0, 2.875, 2.25, 2.0], id="Tabulated"),
]


@pytest.mark.parametrize("coefficient,values", COEFFICIENT_VALUES)
@pytest.mark.parametrize("shape", [(), (6,), (2, 3)], ids=["0d", "1d", "2d"])
def test_coefficients_return_a_float_array_of_the_input_shape(coefficient, values, shape):
    if shape:
        y, expected = COEFFICIENT_NODES.reshape(shape), np.reshape(values, shape)
    else:
        y, expected = 0.25, np.array(values[3])  # a Python float in, a 0-d array out
    out = coefficient(y)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == shape
    assert np.array_equal(out, expected)


def test_tabulated_rejects_bad_grid():
    with pytest.raises(ConfigError):
        Tabulated(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))


def test_valid_specs_have_positive_vols(demo_spec):
    ys = probe_grid(demo_spec)
    assert np.all(demo_spec.sigma1(ys) > 0)
    assert np.all(demo_spec.sigma2(ys) > 0)


def test_coefficient_string_parsing(tmp_path):
    assert coefficient_from_string("constant:0.25") == Constant(0.25)
    assert coefficient_from_string("atan:0.3,0.5") == Arctangent(0.3, 0.5)
    csv_path = tmp_path / "table.csv"
    csv_path.write_text("y,value\n-1.0,0.1\n1.0,0.2\n")
    t = coefficient_from_string(f"table:{csv_path}", str(tmp_path))
    assert t(0.0) == pytest.approx(0.15)
    with pytest.raises(ConfigError):
        coefficient_from_string("spline:1,2")


@pytest.mark.parametrize("text", [
    "y,value\n-1.0,0.1\n1.0,0.2\n",
    "value,y\n0.1,-1.0\n0.2,1.0\n",
    " Y , VALUE\n-1.0,0.1\n\n1.0,0.2\n\n",
], ids=["y-value", "value-y", "case-spaces-blank-lines"])
def test_table_columns_are_found_by_header_name(tmp_path, text):
    (tmp_path / "table.csv").write_text(text)
    t = coefficient_from_string("table:table.csv", str(tmp_path))
    assert t.grid.tolist() == [-1.0, 1.0] and t.values.tolist() == [0.1, 0.2]
    assert t.source == "table.csv"


# malformed coefficient tables and what the error names besides the file
MALFORMED_TABLES = [
    pytest.param("y,value\n0.0,nan\n1.0,0.2\n", "line 2, column 'value'", id="nan"),
    pytest.param("y,value\n-inf,0.1\n1.0,0.2\n", "line 2, column 'y'", id="inf"),
    pytest.param("y,value\n0.0,0.1\n\n1.0,\n", "line 4, column 'value'", id="empty-cell"),
    pytest.param("y,value\n0.0,0.1\n1.0\n", "line 3, column 'value'", id="one-cell-row"),
    pytest.param("-1.0,0.1\n1.0,0.2\n", "has no column 'y'", id="no-header"),
    pytest.param("y,value\n1.0,0.1\n0.0,0.2\n", "strictly increasing", id="not-increasing"),
    pytest.param("y,value\n0.0,0.1\n", ">= 2 nodes", id="one-node"),
    pytest.param("y,value\n", "has no data rows", id="no-rows"),
]


@pytest.mark.parametrize("text,names", MALFORMED_TABLES)
def test_malformed_table_is_a_config_error_naming_the_file(tmp_path, text, names):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        coefficient_from_string("table:bad.csv", str(tmp_path))
    assert repr(str(path)) in str(info.value) and names in str(info.value)


@pytest.mark.parametrize("text,names", MALFORMED_TABLES)
def test_malformed_table_exits_the_cli_with_2_naming_the_file(tmp_path, capsys, text, names):
    path, config = tmp_path / "bad.csv", tmp_path / "model.cfg"
    path.write_text(text)
    write_config(arctangent_model(), str(config))
    parser = configparser.ConfigParser()
    parser.read(config)
    parser["model"]["sigma2"] = "table:bad.csv"
    with open(config, "w") as fh:
        parser.write(fh)
    assert main(["constants", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert repr(str(path)) in err and names in err


def test_only_input_errors_become_config_errors():
    with pytest.raises(ConfigError, match="cannot parse coefficient 'atan:0.3'"):
        coefficient_from_string("atan:0.3")
    with pytest.raises(TypeError):  # a caller's bug stays a traceback
        coefficient_from_string("table:table.csv", base_dir=None)


def test_config_round_trip(tmp_path, demo_spec):
    path = tmp_path / "model.cfg"
    write_config(demo_spec, str(path))
    loaded = read_config(str(path))
    assert loaded == demo_spec


@pytest.mark.parametrize("out_dir, absolute", [(".", False), ("elsewhere/nested", False),
                                               ("elsewhere/nested", True)],
                         ids=["same-directory", "other-directory", "absolute-path"])
def test_config_round_trip_with_table(tmp_path, out_dir, absolute):
    table = tmp_path / "sigma2.csv"
    table.write_text("y,value\n-5.0,0.15\n0.0,0.2\n5.0,0.3\n")
    source = str(table) if absolute else "sigma2.csv"
    spec = arctangent_model().with_(
        sigma2=coefficient_from_string(f"table:{source}", str(tmp_path)))
    path = tmp_path / out_dir / "model.cfg"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_config(spec, str(path))
    assert (f"table:{table}" in path.read_text()) == absolute  # an absolute path is kept as is
    loaded = read_config(str(path))
    assert loaded.sigma2(1.0) == spec.sigma2(1.0)
    assert math.isclose(loaded.sigma2(-7.0), 0.15)


def test_a_table_path_holding_a_percent_round_trips(tmp_path):
    """Config values are literal: a ``%`` in a table's path is no interpolation."""
    (tmp_path / "s1 100%.csv").write_text("y,value\n-5.0,0.15\n0.0,0.2\n5.0,0.3\n")
    spec = arctangent_model().with_(
        sigma2=coefficient_from_string("table:s1 100%.csv", str(tmp_path)))
    path = tmp_path / "model.cfg"
    write_config(spec, str(path))
    assert "sigma2 = table:s1 100%.csv\n" in path.read_text()
    assert read_config(str(path)).sigma2(1.0) == spec.sigma2(1.0)


# config files that configparser rejects or that are not text, each from a valid file's bytes
MALFORMED_CONFIGS = {
    "no-section-header": lambda good: good.split(b"\n", 1)[1],
    "duplicate-section": lambda good: good + b"[model]\nrho = 0.1\n",
    "duplicate-key": lambda good: good.replace(b"[driver]\n", b"[driver]\neta = 0.1\n"),
    "not-text": lambda good: good.replace(b"[option]", b"[opt\xffion]"),
    "percent": lambda good: good.replace(b"eta = 0.0", b"eta = 5%"),
}


@pytest.mark.parametrize("fault", MALFORMED_CONFIGS)
def test_a_malformed_config_exits_2_with_one_line_naming_the_file(tmp_path, capsys, fault):
    path = tmp_path / "model.cfg"
    write_config(arctangent_model(), str(path))
    path.write_bytes(MALFORMED_CONFIGS[fault](path.read_bytes()))
    assert main(["constants", "--config", str(path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()  # one error line, no traceback
    assert line.startswith(f"error: bad config file {str(path)!r}: ")


def test_missing_config_raises():
    with pytest.raises(ConfigError):
        read_config("/nonexistent/model.cfg")


# the ini layout, spelled out here as an oracle independent of the module's table
CONFIG_SECTIONS = {
    "model": ("b", "sigma1", "sigma2", "m", "rho", "epsilon"),
    "driver": ("eta", "gamma"),
    "option": ("strike", "maturity"),
}


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _vol():
    """A constant or arctangent coefficient with a positive infimum."""
    ramp = _floats(0.01, 2.0).flatmap(
        lambda base: st.builds(Arctangent, st.just(base), _floats(-base, base)))
    return st.one_of(st.builds(Constant, _floats(0.01, 2.0)), ramp)


valid_specs = st.builds(
    ModelSpec,
    b=st.one_of(st.builds(Constant, _floats(-10.0, 10.0)),
                st.builds(Arctangent, _floats(-10.0, 10.0), _floats(-10.0, 10.0))),
    sigma1=_vol(), sigma2=_vol(),
    m=_floats(-5.0, 5.0), rho=_floats(-0.99, 0.99), eta=_floats(-2.0, 2.0),
    gamma=_floats(1e-3, 1e3), epsilon=_floats(1e-4, 10.0),
    strike=_floats(1e-3, 1e4), maturity=_floats(1e-3, 30.0),
)


@settings(max_examples=60, deadline=None)
@given(valid_specs)
def test_config_round_trip_is_exact_for_random_specs(spec):
    assert validate(spec).is_valid
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.cfg"), os.path.join(tmp, "b.cfg")
        write_config(spec, first)
        loaded = read_config(first)
        write_config(loaded, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
        parser = configparser.ConfigParser()
        parser.read(first)
        assert {name: tuple(parser[name]) for name in parser.sections()} == CONFIG_SECTIONS
    assert loaded == spec


@pytest.mark.parametrize("section,key", [(section, None) for section in CONFIG_SECTIONS]
                         + [(section, key) for section, keys in CONFIG_SECTIONS.items()
                            for key in keys])
def test_config_missing_section_or_key_is_named(tmp_path, demo_spec, section, key):
    path = tmp_path / "model.cfg"
    write_config(demo_spec, str(path))
    parser = configparser.ConfigParser()
    parser.read(path)
    if key is None:
        parser.remove_section(section)
    else:
        parser.remove_option(section, key)
    with open(path, "w") as fh:
        parser.write(fh)
    with pytest.raises(ConfigError) as info:
        read_config(str(path))
    assert str(info.value).endswith(repr(key or section))


def test_a_table_without_a_source_cannot_be_written_to_a_config():
    table = Tabulated(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 2.0]))
    with pytest.raises(ConfigError, match="has no backing csv path"):
        table.config_value()
