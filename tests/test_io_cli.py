import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sixff import presets
from sixff.cli import main
from sixff.fields import GF, QQ, parse_field
from sixff.groupoid import StructureError, delooping
from sixff.io import (
    InputError, load_document, load_group, load_groupoid, load_inputs,
    load_matrix, load_setup, load_sheaf,
)
from sixff.suite import SuiteConfig, emit_report, run_suite


def test_parse_field():
    assert parse_field("q") == QQ
    assert parse_field("fp:5") == GF(5)
    assert parse_field("F7") == GF(7)
    with pytest.raises(ValueError):
        parse_field("r")


def test_load_group_preset_and_table():
    g = load_group({"preset": "s3"})
    assert len(g) == 6
    c3 = load_group({"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
    assert len(c3) == 3


def test_load_group_permutations_closed():
    d4 = load_group({"permutations": [[1, 2, 3, 0], [3, 2, 1, 0]]})
    assert len(d4) == 8


def test_load_group_malformed():
    with pytest.raises(StructureError):
        load_group({"table": [[0, 1], [1, 1]]})


def test_load_matrix_reads_q_scalars_as_ints_when_integral():
    m = load_matrix(QQ, [["4/2", [4, 2], "3", 5, "1/3", [-2, 6]]])
    assert m.rows == ((2, 2, 3, 5, Fraction(1, 3), Fraction(-1, 3)),)
    assert [type(x) for x in m.rows[0]] == [int] * 4 + [Fraction] * 2


@pytest.mark.parametrize("bad", [0.5, True, [1.5, 2], [1, 2, 3], "1/2/3"])
def test_load_matrix_refuses_a_scalar_it_would_truncate(bad):
    with pytest.raises(ValueError):
        load_matrix(QQ, [[bad]])


def test_python_dash_m_sixff_runs_the_cli():
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "sixff", "presets"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("groups:")


def test_sixff_run_under_python_dash_O_matches_the_pinned_report():
    """`python -O` strips every `assert`: the checks of three suites still
    give the pinned status and witness, so none rests on one."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    cmd = [sys.executable, "-O", "-m", "sixff", "run", "--format", "json",
           "--seed", "0", "--probes", "2", "--suite", "corr", "--suite",
           "groupoid", "--suite", "setup"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    pinned = {c["id"]: c for c in json.loads(
        (tests / "run_outputs" / "seed0_probes2.json").read_text())["checks"]}
    checks = json.loads(done.stdout)["checks"]
    assert sorted(c["id"] for c in checks) == [
        "corr.composition", "corr.self-duality", "groupoid.double-cosets",
        "setup.cross-check"]
    for c in checks:
        assert (c["status"], c["witness"]) == (pinned[c["id"]]["status"],
                                               pinned[c["id"]]["witness"])


def test_load_groupoid_and_sheaf():
    doc = {
        "objects": ["x"],
        "morphisms": [{"id": "e", "src": "x", "dst": "x"},
                      {"id": "s", "src": "x", "dst": "x"}],
        "identity": {"x": "e"},
        "compose": [["e", "e", "e"], ["e", "s", "s"],
                    ["s", "e", "s"], ["s", "s", "e"]],
        "inverse": {"e": "e", "s": "s"},
    }
    g = load_groupoid(doc)
    assert g.validate() == []
    sh = load_sheaf({"field": "q", "dims": {"x": 1},
                     "matrices": {"s": [["-1"]]}}, g)
    assert sh.validate() == []
    # generator closure fills s∘s = e automatically and checks exactness
    with pytest.raises(StructureError):
        load_sheaf({"field": "q", "dims": {"x": 1},
                    "matrices": {"s": [["2"]]}}, g)


def test_load_setup():
    doc = {
        "objects": ["a", "b"],
        "morphisms": [{"id": "ia", "src": "a", "dst": "a"},
                      {"id": "ib", "src": "b", "dst": "b"},
                      {"id": "f", "src": "a", "dst": "b",
                       "exceptional": True}],
        "identity": {"a": "ia", "b": "ib"},
        "compose": [["ia", "ia", "ia"], ["ib", "ib", "ib"],
                    ["f", "ia", "f"], ["ib", "f", "f"]],
    }
    setup = load_setup(doc)
    assert setup.in_e("f")
    assert not setup.in_e("ia")


def test_report_determinism():
    cfg = SuiteConfig(suites=("adj", "setup"), probes=1, seed=11)
    r1 = run_suite(cfg)
    r2 = run_suite(cfg)
    assert emit_report(r1, "json") == emit_report(r2, "json")
    doc = json.loads(emit_report(r1, "json"))
    assert doc["schema"] == "sixff-report-v1"
    assert doc["ok"] is True
    # every check id maps to exactly one anchor
    anchors = {c["id"]: c["anchor"] for c in doc["checks"]}
    assert len(anchors) == len(doc["checks"])


def test_report_seed_changes_nothing_for_deterministic_suites():
    a = emit_report(run_suite(SuiteConfig(suites=("setup",), seed=1)), "json")
    b = emit_report(run_suite(SuiteConfig(suites=("setup",), seed=2)), "json")
    # the exhaustive setup suite does not consume randomness beyond config
    assert json.loads(a)["checks"] == json.loads(b)["checks"]


def test_cli_adj_and_presets(capsys):
    assert main(["adj", "verify"]) == 0
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "triangle identities: pass" in out


def test_cli_adj_mate_fails_on_a_wrong_mate(monkeypatch, capsys):
    """A mate that does not invert ends in status 1 with the failing cell
    printed: the check is a comparison, not an assert that `python -O`
    would drop."""
    from sixff import twocat
    assert main(["adj", "mate"]) == 0
    monkeypatch.setattr(twocat, "mate_lambda", lambda *args: "wrong cell")
    assert main(["adj", "mate"]) == 1
    out = capsys.readouterr().out
    assert "to 'wrong cell'" in out
    assert out.count("mates mutually inverse") == 1


def test_cli_run_selected_suite(capsys):
    code = main(["run", "--suite", "adj", "--format", "json", "--probes", "1"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True


def test_cli_hecke_table(capsys):
    code = main(["hecke", "table", "--group", "S3", "--subgroup", "(12)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dimension 2" in out


def test_cli_pyramid_and_sections(capsys):
    assert main(["pyramid", "2"]) == 0
    assert main(["sections", "2"]) == 0
    out = capsys.readouterr().out
    assert "6 elements" in out


def test_run_suite_reports_corr_alarm_as_failure(monkeypatch):
    import sixff.corr
    from sixff import suite

    def alarm(config, rng):
        raise sixff.corr.TheoremViolation("pullback mediator not unique")

    monkeypatch.setattr(suite, "CHECKS",
                        [("corr.alarm", "corr-alarm", "corr", alarm)])
    report = run_suite(SuiteConfig(suites=("corr",)))
    [result] = report.results
    assert result.status == "fail"
    assert result.witness == "alarm: pullback mediator not unique"
    assert report.exit_code() == 1


@pytest.mark.parametrize("argv", [
    ["run"], ["descent"], ["kernels", "verify"],
    ["hecke", "table", "--group", "S3", "--subgroup", "(12)"],
], ids=["run", "descent", "kernels", "hecke"])
@pytest.mark.parametrize("spec", ["bogus", "fp:4", "fp:x"])
def test_cli_bad_field_is_a_usage_error(argv, spec, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--field", spec])
    assert exc.value.code == 2
    assert "argument --field" in capsys.readouterr().err


def test_cli_run_echoes_a_valid_field_spec_unchanged(capsys):
    code = main(["run", "--suite", "adj", "--format", "json", "--probes", "1",
                 "--field", "FP:5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["config"]["field"] == "FP:5"


GROUPOID_WITHOUT_MORPHISMS = {"objects": ["x"], "identity": {"x": "e"},
                              "compose": [["e", "e", "e"]]}
# a loop of order 5 with identity 0 and every element its own inverse:
# (1*2)*2 = 4 while 1*(2*2) = 1
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_document_names_the_file(tmp_path):
    bad = _write(tmp_path, "bad.json", '{"objects": [')
    with pytest.raises(InputError, match="^%s: malformed JSON" % re.escape(bad)):
        load_document(bad)
    with pytest.raises(InputError, match="not a JSON object"):
        load_document(_write(tmp_path, "list.json", "[1, 2]"))
    missing = str(tmp_path / "missing.json")
    with pytest.raises(InputError) as exc:
        load_document(missing)
    assert exc.value.path == missing


def test_loaders_name_the_file_and_the_missing_key(tmp_path):
    path = _write(tmp_path, "g.json", json.dumps(GROUPOID_WITHOUT_MORPHISMS))
    with pytest.raises(InputError) as exc:
        load_groupoid(load_document(path))
    assert str(exc.value) == "%s: missing key 'morphisms'" % path
    # nested records too
    doc = dict(GROUPOID_WITHOUT_MORPHISMS,
               morphisms=[{"id": "e", "src": "x"}])
    path = _write(tmp_path, "h.json", json.dumps(doc))
    with pytest.raises(InputError, match="missing key 'dst'$"):
        load_groupoid(load_document(path))


def test_load_inputs_names_the_file_of_a_malformed_table(tmp_path):
    path = _write(tmp_path, "loop.json", json.dumps({"table": LOOP5}))
    with pytest.raises(InputError, match="^%s: .*associativity" % re.escape(path)) as exc:
        load_inputs([path])
    assert isinstance(exc.value, StructureError)
    sheaf = _write(tmp_path, "s.json", json.dumps(
        {"kind": "sheaf", "base": "nowhere", "dims": {}}))
    with pytest.raises(InputError, match="unknown base 'nowhere'"):
        load_inputs([sheaf])


@pytest.mark.parametrize("argv, text, detail", [
    (["setup", "check", "--input"], '{"objects": [', "malformed JSON"),
    (["setup", "check", "--input"], json.dumps(GROUPOID_WITHOUT_MORPHISMS),
     "missing key 'morphisms'"),
    (["kernels", "verify", "--base"], json.dumps(GROUPOID_WITHOUT_MORPHISMS),
     "missing key 'morphisms'"),
    (["run", "--suite", "adj", "--input"], json.dumps({"table": LOOP5}),
     "associativity"),
], ids=["setup-json", "setup-key", "kernels-key", "run-table"])
def test_cli_bad_input_is_one_line_and_exit_2(argv, text, detail, tmp_path,
                                              capsys):
    path = _write(tmp_path, "in.json", text)
    assert main(argv + [path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sixff: %s: " % path) and detail in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_missing_input_file_exits_2(tmp_path, capsys):
    path = str(tmp_path / "absent.json")
    assert main(["setup", "check", "--input", path]) == 2
    assert capsys.readouterr().err.startswith("sixff: %s: " % path)


@pytest.mark.parametrize("argv", [
    ["hecke", "table", "--group", "S3", "--subgroup", "(12)",
     "--field", "fp:3"],
    ["descent", "--field", "fp:2"],
], ids=["hecke", "descent"])
def test_cli_gate_error_is_one_line_and_exit_3(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("sixff: gate: ") and err.count("\n") == 1


@pytest.mark.parametrize("group, subgroup, detail", [
    ("X", "(12)", "--group: unknown preset group 'X'"),
    ("C3", "(12)", "--group: C3 is not a permutation group"),
    ("Q8", "(12)", "--group: Q8 is not a permutation group"),
    ("S3", "(1x)", "--subgroup: '(1x)' is not in cycle notation"),
    ("S3", "(12", "--subgroup: '(12' is not in cycle notation"),
    ("S3", "(19)", "--subgroup: '(19)' moves a point outside 0..2"),
    ("S3", "(12)(13)", "--subgroup: the cycles of '(12)(13)' are not"),
    ("D4", "(12)", "--subgroup: (1, 0, 2, 3) is not an element of D4"),
], ids=["unknown-group", "cyclic-group", "quaternions", "bad-entry",
        "unclosed", "out-of-range", "overlapping", "not-in-group"])
def test_cli_hecke_bad_value_is_one_line_and_exit_2(group, subgroup, detail,
                                                     capsys):
    assert main(["hecke", "table", "--group", group,
                 "--subgroup", subgroup]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sixff: " + detail) and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["pyramid", "sections"])
@pytest.mark.parametrize("n", ["-1", "x"])
def test_cli_level_must_be_a_nonnegative_int(cmd, n, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, n])
    assert exc.value.code == 2
    assert "argument n" in capsys.readouterr().err


@pytest.mark.parametrize("probes", ["0", "-3", "x"])
def test_cli_run_probes_must_be_a_positive_int(probes, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suite", "adj", "--probes", probes])
    assert exc.value.code == 2
    assert "argument --probes" in capsys.readouterr().err


def test_suite_config_rejects_probes_below_one():
    with pytest.raises(ValueError):
        SuiteConfig(probes=0)


def test_run_suite_draws_each_check_from_its_own_stream(monkeypatch):
    import random

    from sixff import suite
    draws = {}

    def recorder(check_id):
        def check(config, rng):
            draws.setdefault(check_id, []).append(rng.random())
            return "pass", "recorded"
        return check

    monkeypatch.setattr(suite, "CHECKS", [
        (cid, "anchor", name, recorder(cid)) for cid, name in
        (("corr.first", "corr"), ("kernel.second", "kernel"),
         ("hecke.third", "hecke"))])
    run_suite(SuiteConfig(seed=5))
    for only in ("corr", "kernel", "hecke"):
        run_suite(SuiteConfig(suites=(only,), seed=5))
    for cid, seen in draws.items():
        # the full run and the single-suite run draw the same first value
        assert seen == [random.Random("5/" + cid).random()] * 2


_SETUP_DEMO_TEXT = """\
demo: chain poset a->b->c with E missing a->b
diagonal-in-E verdict:        False
right-cancellativity verdict: False
cross-check (verdicts agree): True
  [setup/base-change] base change of ('le', 'a', 'c') along ('le', 'b', 'c') leaves E
"""


_SETUP_DEMO_JSON = (
    '{"cross_check": true, "diagonal": false, "right_cancellative": false, '
    '"violations": [{"code": "setup/base-change", "detail": "base change of '
    '(\'le\', \'a\', \'c\') along (\'le\', \'b\', \'c\') leaves E"}]}\n')


@pytest.mark.parametrize("json_flag, expected", [
    ([], _SETUP_DEMO_TEXT), (["--json"], _SETUP_DEMO_TEXT + _SETUP_DEMO_JSON),
], ids=["text", "json"])
def test_cli_setup_runs_the_preconditions_once(json_flag, expected,
                                               monkeypatch, capsys):
    """Both setup checks read one precondition report; the output is
    pinned byte for byte."""
    from sixff.corr import GeometricSetup
    runs = []
    preconditions = GeometricSetup._preconditions

    def counted(self):
        runs.append(self)
        return preconditions(self)

    monkeypatch.setattr(GeometricSetup, "_preconditions", counted)
    assert main(["setup", "check", "--demo"] + json_flag) == 0
    assert len(runs) == 1
    assert capsys.readouterr().out == expected
