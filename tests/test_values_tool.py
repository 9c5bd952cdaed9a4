"""`tools/values.py --against` fails on a changed outcome, not on float
drift: `against` is the command's exit status, checked here on two small
hand-written value files instead of the full computation."""

import importlib.util
import json
import math
import pathlib
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "values.py"


@pytest.fixture()
def values(monkeypatch):
    # the tool prepends src/ and bench/ to sys.path and sets the BLAS
    # thread variables; monkeypatch puts all of it back afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("values_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sample():
    return {
        "knots": {"trefoil-2@3": [5.196, 0.0]},
        "moves": {"trefoil-2/R2/0": [5.196, 0.0],
                  "unknot/R2/0": "Inconsistent"},
        "sites": {"unknot/R2/0": {"site": [0, 1, 2],
                                  "moved": {"slices": [["X+"]]},
                                  "outcome": "Inconsistent"}},
        "sweep": {"3/0/1": [[1.0, 0.0], [0.5, -0.5]],
                  "5/0/1": "NonGenericCharacter"},
        "exact": {"0/yb": [[["1/2", "0"], ["1", "3 i"]]],
                  "0/star": "NotFactorizable: matrix is singular"},
    }


def status(values, tmp_path, new, old):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    return values.against(new, path)


def test_identical_files_exit_0(values, tmp_path, capsys):
    assert status(values, tmp_path, sample(), sample()) == 0
    out = capsys.readouterr().out
    assert "strings or messages differ on 0" in out
    assert out.endswith("identical: yes, every float and string\n")


def test_one_ulp_is_not_identical_and_exits_0(values, tmp_path, capsys):
    # one float moved by one unit in the last place: float drift alone,
    # so the exit status is 0, but the files are not identical
    new = sample()
    new["sweep"]["3/0/1"][1][0] = math.nextafter(0.5, 1)
    assert status(values, tmp_path, new, sample()) == 0
    assert capsys.readouterr().out.endswith("identical: no\n")


def test_float_drift_alone_exits_0(values, tmp_path):
    new = sample()
    new["knots"]["trefoil-2@3"][0] += 1e-13
    new["sweep"]["3/0/1"][1][1] += 1e-14
    assert status(values, tmp_path, new, sample()) == 0


def test_changed_exact_string_exits_1(values, tmp_path, capsys):
    new = sample()
    new["exact"]["0/yb"][0][0][0] = "1/3"
    assert status(values, tmp_path, new, sample()) == 1
    assert "differ on 1: ['0/yb']" in capsys.readouterr().out


@pytest.mark.parametrize("section, key, value", [
    ("knots", "trefoil-2@3", "NonGenericCharacter"),
    ("moves", "unknot/R2/0", [1.0, 0.0]),
    ("sweep", "5/0/1", "NotFactorizable"),
    ("exact", "0/star", "NotFactorizable: lower-right entry vanishes"),
])
def test_changed_outcome_exits_1(values, tmp_path, section, key, value):
    new = sample()
    new[section][key] = value
    assert status(values, tmp_path, new, sample()) == 1


@pytest.mark.parametrize("field", ["site", "moved", "outcome"])
def test_changed_site_exits_1(values, tmp_path, field):
    new = sample()
    new["sites"]["unknot/R2/0"][field] = "changed"
    assert status(values, tmp_path, new, sample()) == 1


def test_phase_alone_shows_only_in_a_minus_b(values, tmp_path, capsys):
    # a value and a block turned by the phase i keep their magnitude and
    # fit the old ones with a unimodular z, and the command exits 0
    new = sample()
    new["knots"]["trefoil-2@3"] = [0.0, 5.196]
    new["sweep"]["3/0/1"] = [[0.0, 1.0], [0.5, 0.5]]
    assert status(values, tmp_path, new, sample()) == 0
    out = capsys.readouterr().out
    assert "largest |a - b|: trefoil-2@3 7.3e+00; largest ||a| - |b|| / " \
        "|b|: trefoil-2@3 0.0e+00" in out
    assert "largest |B - zA| / max |A|: 3/0/1 0.0e+00; largest " \
        "||z| - 1|: 3/0/1 0.0e+00" in out


def test_magnitude_change_shows_apart_from_phase(values, tmp_path, capsys):
    # a value scaled by 1 + 1e-6 and a block doubled: the magnitude
    # column and |z| show them; the fit of the doubled block is exact
    new = sample()
    new["moves"]["trefoil-2/R2/0"] = [5.196 * (1 + 1e-6), 0.0]
    new["sweep"]["3/0/1"] = [[2.0, 0.0], [1.0, -1.0]]
    assert status(values, tmp_path, new, sample()) == 0
    out = capsys.readouterr().out
    assert "largest ||a| - |b|| / |b|: trefoil-2/R2/0 1.0e-06" in out
    assert "largest |B - zA| / max |A|: 3/0/1 0.0e+00; largest " \
        "||z| - 1|: 3/0/1 5.0e-01" in out
