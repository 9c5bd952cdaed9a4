"""Unit tests for the command line interface."""

import json

import pytest

from tanglev import cli, coloring, diagram, factgroup

from conftest import mat2_of, trefoil_boundary_2, trefoil_meridians


def mat_json(m):
    e = [complex(v) for v in m.entries()]
    return [[[e[0].real, e[0].imag], [e[1].real, e[1].imag]],
            [[e[2].real, e[2].imag], [e[3].real, e[3].imag]]]


@pytest.fixture()
def trefoil_file(tmp_path):
    x1, x2 = trefoil_boundary_2()
    data = {"word": [1, 1, 1], "strands": 2, "closure": "partial",
            "coloring": {"bottom": [[1, mat_json(x1)]],
                         "cups": {"0": mat_json(x2)}}}
    p = tmp_path / "trefoil.braid"
    p.write_text(json.dumps(data))
    return str(p)


@pytest.fixture()
def unknot_file(tmp_path):
    p = tmp_path / "unknot.braid"
    p.write_text(json.dumps({"word": [], "strands": 1}))
    return str(p)


def closure_seeds():
    """The two cup seeds of a flat colouring of the trace closure of s1^2:
    equal meridians are fixed by the crossing action."""
    a, _ = trefoil_meridians()
    return coloring.functor_f_object(
        [(1, mat2_of(a)), (1, mat2_of(a @ a))]).colors()


def closure_file(tmp_path, x1, x2):
    p = tmp_path / "closed.braid"
    p.write_text(json.dumps({
        "word": [1, 1], "strands": 2, "closure": "trace",
        "coloring": {"cups": {"0": mat_json(x1), "1": mat_json(x2)}}}))
    return str(p)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


class TestInvariantMode:
    def test_trefoil_braid_file(self, capsys, trefoil_file):
        code, rep = run_cli(capsys, "invariant", trefoil_file)
        assert code == 0
        assert rep["writhe"] == 3
        assert rep["magnitude"] == pytest.approx(5.196152422706661,
                                                 abs=1e-6)
        assert rep["normalization"] == "det1-phase-2"
        assert rep["framing"] == "balanced"

    def test_unknot_with_char(self, capsys, unknot_file):
        # color the strand via an explicit character quadruple
        from tanglev import braiding
        x1, _ = trefoil_boundary_2()
        ch = braiding.group_to_char(x1)
        quad = ",".join("%.12g%+.12gj" % (complex(v).real, complex(v).imag)
                        for v in ch.coords())
        code, rep = run_cli(capsys, "invariant", unknot_file,
                            "--char", quad)
        assert code == 0
        assert rep["magnitude"] == pytest.approx(1.0, abs=1e-9)

    def test_missing_input_is_config_error(self, capsys):
        code, rep = run_cli(capsys, "invariant")
        assert code == 1
        assert "input" in rep["error"]

    @pytest.mark.parametrize("mode, samples", [("yb-fuzz", "-3"),
                                               ("verify", "0")])
    def test_samples_below_one_rejected(self, capsys, mode, samples):
        # a run that checks nothing must not report itself clean
        code, rep = run_cli(capsys, mode, "--samples", samples)
        assert code == 1
        assert rep["type"] == "ConfigError" and "samples" in rep["error"]

    @pytest.mark.parametrize("mode", ["invariant", "verify", "yb-fuzz"])
    @pytest.mark.parametrize("backend", ["float", "rational"])
    def test_backend_outside_color_check_rejected(self, capsys, unknot_file,
                                                  mode, backend):
        # only color-check reads --backend: elsewhere it would be ignored
        # and the report would not say so
        code, rep = run_cli(capsys, mode, unknot_file, "--backend", backend,
                            "--samples", "1")
        assert code == 1
        assert rep["type"] == "ConfigError"
        assert rep["error"] == "--backend applies to color-check only"

    def test_even_ell_rejected(self, capsys, unknot_file):
        code, rep = run_cli(capsys, "invariant", unknot_file, "--ell", "4")
        assert code == 1
        assert "odd" in rep["error"]

    def test_missing_file(self, capsys):
        code, rep = run_cli(capsys, "invariant", "/nonexistent.braid")
        assert code == 1
        assert rep["type"] in ("FileNotFoundError", "OSError")

    @pytest.mark.parametrize("name, data, error", [
        ("no-strands.braid", {"word": [1]}, "ConfigError"),
        ("no-diagram.coloring", {"bottom": []}, "ConfigError"),
        ("no-slices.coloring", {"diagram": {"bottom_signs": [1]}},
         "ConfigError"),
        ("bogus.coloring", {"diagram": {"slices": [["id+"], ["bogus"]],
                                        "bottom_signs": [1]}},
         "DiagramSyntaxError"),
        ("string-word.braid", {"word": "ab", "strands": 2}, "ConfigError"),
        ("scalar-colour.coloring", {"tgl": "id+", "bottom": [[1, 5]]},
         "ConfigError"),
        ("short-row.coloring", {"tgl": "id+", "bottom": [[1, [[1, 2], [3]]]]},
         "ConfigError"),
    ])
    def test_malformed_input_is_an_error_report(self, capsys, tmp_path,
                                                name, data, error):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        code, rep = run_cli(capsys, "invariant", str(p))
        assert code == 1
        assert rep["type"] == error and rep["error"]


class TestColorCheckMode:
    def test_consistent_coloring(self, capsys, trefoil_file):
        code, rep = run_cli(capsys, "color-check", trefoil_file)
        assert code == 0
        assert rep["consistent"] is True

    def test_inconsistent_coloring(self, capsys, tmp_path):
        x1, x2 = trefoil_boundary_2()
        data = {"word": [1, 1], "strands": 2, "closure": "partial",
                "coloring": {"bottom": [[1, mat_json(x1)]],
                             "cups": {"0": mat_json(x2)}}}
        p = tmp_path / "bad.braid"
        p.write_text(json.dumps(data))
        code, rep = run_cli(capsys, "color-check", str(p))
        assert code == 2
        assert rep["consistent"] is False


    def test_rational_char_gives_exact_colours(self, capsys, unknot_file):
        # the --char colour is assembled from the exact scalars, not from
        # their complex casts
        code, rep = run_cli(capsys, "color-check", unknot_file,
                            "--backend", "rational", "--char", "2,1,3,5")
        assert code == 0
        assert rep["backend"] == "rational"
        assert rep["bottom"]["colors"] == [[["2", "1"], ["10/3", "2"]]]
        assert rep["top"]["colors"] == rep["bottom"]["colors"]

    def test_rational_entries_as_pairs_and_numbers(self, capsys, tmp_path):
        # a .coloring entry may be a string, an [re, im] pair or a number
        p = tmp_path / "strand.coloring"
        p.write_text(json.dumps({"tgl": "id+", "bottom": [
            [1, [[[2, 0], 1], ["10/3", [0.5, -1]]]]]}))
        code, rep = run_cli(capsys, "color-check", str(p),
                            "--backend", "rational")
        assert code == 0
        assert rep["bottom"]["colors"] == [[["2", "1"], ["10/3", "1/2-1 i"]]]

    def test_tgl_input(self, capsys, tmp_path):
        # a .tgl file carries no colours: --char colours its bottom
        p = tmp_path / "strand.tgl"
        p.write_text("id+ ; id+")
        code, rep = run_cli(capsys, "color-check", str(p),
                            "--backend", "rational", "--char", "2,1,3,5")
        assert code == 0
        assert rep["top"]["colors"] == [[["2", "1"], ["10/3", "2"]]]

    def test_trace_closure_is_checked_from_its_cups(self, capsys, tmp_path):
        # the trace closure of s1^2 is closed: its cup seeds are colour-
        # checked by propagation, and it has no boundary to report
        code, rep = run_cli(capsys, "color-check",
                            closure_file(tmp_path, *closure_seeds()))
        assert code == 0
        assert rep["consistent"] is True
        assert rep["bottom"]["colors"] == rep["top"]["colors"] == []

    @pytest.mark.parametrize("shift", [1e-12, 2e-9, 5e-9, 3e-8])
    def test_colour_verdict_is_the_librarys(self, capsys, tmp_path, shift):
        # with the second seed moved off the flat colouring, color-check
        # reports a consistent colouring exactly when propagate succeeds:
        # both bound colour differences by coloring.BOUNDARY_TOL
        x1, x2 = closure_seeds()
        x2 = factgroup.Mat2(x2.m11 + shift, x2.m12, x2.m21, x2.m22)
        d = diagram.close_braid(diagram.braid_word([1, 1], 2))
        try:
            coloring.propagate(d, coloring.ColoredBoundary(()),
                               cup_seeds={0: x1, 1: x2})
            consistent = True
        except coloring.CapMismatch:
            consistent = False
        assert consistent is (shift < coloring.BOUNDARY_TOL)
        code, rep = run_cli(capsys, "color-check",
                            closure_file(tmp_path, x1, x2))
        assert rep["consistent"] is consistent
        assert code == (0 if consistent else 2)

    def test_bottom_colours_on_a_closed_diagram_rejected(self, capsys,
                                                         tmp_path):
        # a closed diagram has no bottom point to take a colour
        x1, _ = trefoil_boundary_2()
        p = tmp_path / "loop.coloring"
        p.write_text(json.dumps({"tgl": "cupL ; capR",
                                 "bottom": [[1, mat_json(x1)]]}))
        code, rep = run_cli(capsys, "color-check", str(p))
        assert code == 1
        assert rep["type"] == "ArityMismatch"


@pytest.mark.parametrize("mode", ["invariant", "color-check"])
@pytest.mark.parametrize("backend", ["float", "rational"])
@pytest.mark.parametrize("char, coordinate", [("0,1,3,5", "alpha"),
                                              ("2,1,0,5", "a")])
def test_char_off_the_domain_rejected(capsys, unknot_file, mode, backend,
                                      char, coordinate):
    # the colour of --char alpha,beta,a,b is assembled by dividing by
    # alpha * a, so a zero alpha or a is refused before that; `invariant`
    # colours in floats and takes no --backend, so it runs without one
    flags = ("--backend", backend) if mode == "color-check" else ()
    code, rep = run_cli(capsys, mode, unknot_file, "--char", char, *flags)
    assert code == 1
    assert rep["type"] == "ConfigError"
    assert rep["error"] == "char coordinate %s must be nonzero" % coordinate


class TestVerifyMode:
    def test_small_verify_run(self, capsys):
        code, rep = run_cli(capsys, "verify", "--samples", "10",
                            "--seed", "3")
        assert code == 0
        assert all(sec["failures"] == 0
                   for sec in rep["sections"].values())

    def test_star_inverse_checked_against_identity(self, capsys,
                                                   monkeypatch):
        # a wrong inverse that is the same on both sides must not pass
        monkeypatch.setattr(factgroup, "star_inv", lambda g: g)
        code, rep = run_cli(capsys, "verify", "--samples", "10",
                            "--seed", "3")
        assert code == 2
        assert rep["sections"]["factorization_star_axioms"]["failures"] > 0


class TestYbFuzzMode:
    def test_deterministic_and_clean(self, capsys):
        code1, rep1 = run_cli(capsys, "yb-fuzz", "--samples", "50",
                              "--seed", "11")
        code2, rep2 = run_cli(capsys, "yb-fuzz", "--samples", "50",
                              "--seed", "11")
        assert code1 == code2 == 0
        assert rep1 == rep2
        assert rep1["failures"] == 0
