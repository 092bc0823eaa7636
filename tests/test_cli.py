import json
from pathlib import Path

import numpy as np
import pytest

from bilinctrl.cli import EXIT_INVALID, EXIT_NUMERICAL, EXIT_OK, EXIT_UNDETERMINED, \
    build_parser, main
from bilinctrl.model import builtin_corpus, parse_system


def run(*argv):
    return main(list(argv))


def test_corpus_listing(capsys):
    assert run("corpus") == EXIT_OK
    out = capsys.readouterr().out
    for name in ("so3", "planar_jd", "expanding_pair", "identity_only", "example1"):
        assert name in out


def test_corpus_emits_parseable_document(capsys):
    assert run("corpus", "--builtin", "so3") == EXIT_OK
    spec = parse_system(capsys.readouterr().out)
    assert spec.name == "so3" and spec.n == 3


def test_analyze_so3_report(tmp_path):
    out = tmp_path / "report.json"
    code = run("analyze", "--builtin", "so3", "--seed", "1",
               "--samples", "500", "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["verdict"]["conclusion"] == "not_controllable"
    assert doc["verdict"]["certificate"]["kind"] == "rank_drop_witness"
    assert len(doc["verdict"]["certificate"]["witness"]) == 3
    assert doc["environment"]["seed"] == 1
    assert doc["verdict"]["lie_dim"] == 3


def test_analyze_report_schema_complete(tmp_path):
    out = tmp_path / "report.json"
    run("analyze", "--builtin", "so3", "--samples", "500", "--out", str(out))
    verdict = json.loads(out.read_text())["verdict"]
    for key in ("conclusion", "certificate", "evidence", "lie_dim",
                "orbit_dims", "angular", "diagnostics"):
        assert key in verdict


def test_analyze_planar_jd_controllable(tmp_path):
    out = tmp_path / "report.json"
    code = run("analyze", "--builtin", "planar_jd", "--seed", "1",
               "--budget", "100000", "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["verdict"]["conclusion"] == "controllable"
    assert doc["verdict"]["evidence"]["fraction"] >= 0.99


def test_analyze_certificate_reverifiable_from_report(tmp_path):
    out = tmp_path / "report.json"
    run("analyze", "--builtin", "expanding_pair", "--samples", "500",
        "--out", str(out))
    doc = json.loads(out.read_text())
    cert = doc["verdict"]["certificate"]
    assert cert["kind"] == "monotone_norm"
    for eigs in cert["sym_eigenvalues"]:
        assert min(eigs) >= -1e-12


def test_analyze_undetermined_exit_code(tmp_path):
    out = tmp_path / "report.json"
    code = run("analyze", "--builtin", "planar_jd", "--budget", "2000",
               "--samples", "500", "--coverage-threshold", "0.9999",
               "--out", str(out))
    assert code == EXIT_UNDETERMINED
    doc = json.loads(out.read_text())
    assert doc["verdict"]["conclusion"] == "undetermined"
    assert "reason" in doc["verdict"]["diagnostics"]


def test_analyze_invalid_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "matrices": [[[0, -1], [1, 0], [0, 0]]]}')
    assert run("analyze", "--spec", str(bad)) == EXIT_INVALID
    assert "not square" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "1", "2", "0"])
def test_analyze_rejects_bad_tolerance(tmp_path, capsys, tol):
    # a relative tolerance of 1 or more, or NaN, would put a rank drop
    # at every point and certify planar_jd as not controllable
    out = tmp_path / "report.json"
    assert run("analyze", "--builtin", "planar_jd", "--samples", "200",
               "--budget", "2000", "--tol", tol, "--out", str(out)) == EXIT_INVALID
    assert "tol" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_missing_file():
    assert run("analyze", "--spec", "/nonexistent/system.json") == EXIT_INVALID


def test_analyze_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["analyze", "--builtin", "identity_only", "--seed", "3",
            "--samples", "500"]
    run(*args, "--out", str(a))
    run(*args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_analyze_spec_file_route(tmp_path):
    doc = tmp_path / "rot.json"
    doc.write_text('{"n": 2, "matrices": [[[0, -1], [1, 0]]], "name": "rot"}')
    out = tmp_path / "report.json"
    code = run("analyze", "--spec", str(doc), "--samples", "500",
               "--out", str(out))
    assert code == EXIT_OK
    assert json.loads(out.read_text())["verdict"]["conclusion"] == "not_controllable"


def test_reach_writes_cloud_and_coverage(tmp_path):
    out = tmp_path / "run"
    code = run("reach", "--builtin", "planar_jd", "--budget", "5000",
               "--out", str(out))
    assert code == EXIT_OK
    cloud = np.loadtxt(out / "cloud.csv", delimiter=",")
    assert cloud.shape[1] == 2 and cloud.shape[0] >= 5000
    doc = json.loads((out / "coverage.json").read_text())
    assert 0.0 < doc["coverage"]["fraction"] <= 1.0
    assert doc["coverage"]["grid"]["radial_bins"] == 16


def test_reach_requires_out(capsys):
    assert run("reach", "--builtin", "planar_jd") == EXIT_INVALID


def test_reach_custom_x0(tmp_path):
    out = tmp_path / "run"
    code = run("reach", "--builtin", "so3", "--budget", "500",
               "--x0", "0,1,0", "--out", str(out))
    assert code == EXIT_OK
    assert run("reach", "--builtin", "so3", "--budget", "10",
               "--x0", "1,0", "--out", str(out)) == EXIT_INVALID


def test_foliation_radial_graph(tmp_path):
    out = tmp_path / "fol"
    code = run("foliation", "--example", "radial_graph_h03",
               "--theta-samples", "8", "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads((out / "summary.json").read_text())
    assert doc["mean_return_radius"] == pytest.approx(np.exp(-0.6), abs=1e-5)
    table = (out / "return_map.csv").read_text().splitlines()
    assert table[0].startswith("theta_index,")
    assert len(table) == 9
    arcs = (out / "arcs.csv").read_text().splitlines()
    assert arcs[0] == "theta_index,t,x_0,x_1,x_2"
    assert len(arcs) > 9


def test_foliation_from_builtin_orbits(tmp_path):
    out = tmp_path / "fol"
    code = run("foliation", "--builtin", "so3", "--theta-samples", "4",
               "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads((out / "summary.json").read_text())
    assert doc["mean_return_radius"] == pytest.approx(1.0, abs=1e-6)


def test_foliation_numerical_failure_exit_code(tmp_path, capsys):
    # a generic pair has full-dimensional orbits, so there is no
    # codimension-one leaf field to trace; that is a numerical failure,
    # not an input error
    doc = tmp_path / "generic.json"
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((2, 3, 3)).round(3).tolist()
    doc.write_text(json.dumps({"n": 3, "matrices": mats}))
    out = tmp_path / "fol"
    code = run("foliation", "--spec", str(doc), "--theta-samples", "4",
               "--out", str(out))
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_foliation_orbit_tangents_use_tol(tmp_path, capsys):
    # so3 conjugated by diag(1, 1, 1e3): at --tol 0.9 the evaluated closure
    # has rank 1 at every probe, so there is no leaf field to trace
    p = np.diag([1.0, 1.0, 1e3])
    mats = [(p @ m @ np.linalg.inv(p)).tolist()
            for m in builtin_corpus("so3").family.matrices]
    doc = tmp_path / "stretched.json"
    doc.write_text(json.dumps({"n": 3, "matrices": mats}))
    argv = ("foliation", "--spec", str(doc), "--theta-samples", "4")
    assert run(*argv, "--out", str(tmp_path / "default")) == EXIT_OK
    assert run(*argv, "--tol", "0.9", "--out", str(tmp_path / "coarse")) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("analyze", "--builtin", "so3", "--seed", "abc"),
    ("analyze",),
    ("reach", "--builtin", "so3", "--budget", "many"),
])
def test_usage_errors_exit_invalid(capsys, argv):
    # argparse's own exit code, 2, is the code for an undetermined verdict
    assert run(*argv) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(capsys, flag):
    assert run(flag) == EXIT_OK
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("analyze", "--builtin", "example1", "--samples", "200", "--budget", "200"),
    ("reach", "--builtin", "planar_jd", "--budget", "100"),
    ("foliation", "--example", "sphere", "--theta-samples", "2"),
    ("corpus",),
])
def test_every_subcommand_rejects_bad_tolerance(tmp_path, capsys, argv):
    # NaN used to reach the reports, which then were not valid JSON
    out = tmp_path / "out"
    assert run(*argv, "--tol", "nan", "--out", str(out)) == EXIT_INVALID
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("analyze", "--builtin", "planar_jd", "--samples", "200", "--budget", "2000"),
    ("reach", "--builtin", "planar_jd", "--budget", "100"),
    ("foliation", "--example", "sphere", "--theta-samples", "2"),
    ("corpus",),
])
@pytest.mark.parametrize("threshold", ["nan", "0", "-0.5", "1.5", "inf"])
def test_every_subcommand_rejects_bad_coverage_threshold(tmp_path, capsys, argv,
                                                         threshold):
    # NaN wrote "coverage_threshold": NaN and "below threshold nan"; 0 called
    # planar_jd controllable at a coverage of 0.80
    out = tmp_path / "out"
    assert run(*argv, "--coverage-threshold", threshold, "--out", str(out)) == EXIT_INVALID
    assert "--coverage-threshold" in capsys.readouterr().err
    assert not out.exists()


SUBCOMMAND_BASES = {
    "reach": ("reach", "--builtin", "planar_jd", "--budget", "100"),
    "foliation": ("foliation", "--example", "sphere", "--theta-samples", "2"),
    "corpus": ("corpus",),
}
FLAG_VALUES = {"--seed": "1", "--tol": "1e-6", "--samples": "10", "--budget": "10",
               "--coverage-threshold": "0.5", "--grid": "8", "--radial-bins": "4",
               "--projective": None, "--dim": "3"}
UNREAD_FLAGS = [
    ("reach", "--tol"), ("reach", "--samples"), ("reach", "--coverage-threshold"),
    *(("foliation", f) for f in ("--samples", "--budget", "--coverage-threshold",
                                 "--grid", "--radial-bins", "--projective")),
    *(("corpus", f) for f in ("--seed", "--tol", "--samples", "--budget",
                              "--coverage-threshold", "--grid", "--radial-bins",
                              "--projective")),
    ("reach", "--dim"), ("corpus", "--dim"),
]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_subcommands_refuse_flags_they_do_not_read(tmp_path, capsys, command, flag):
    # all but --dim used to be accepted and never read
    value = FLAG_VALUES[flag]
    out = tmp_path / "out"
    argv = (*SUBCOMMAND_BASES[command], flag, *(() if value is None else (value,)))
    assert run(*argv, "--out", str(out)) == EXIT_INVALID
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", [("--builtin", "so3"), ("--spec", "system.json")])
def test_foliation_refuses_dim_with_a_system(tmp_path, capsys, source):
    # a system fixes its own dimension; --dim used to be ignored there
    out = tmp_path / "fol"
    assert run("foliation", *source, "--dim", "4", "--out", str(out)) == EXIT_INVALID
    assert "--dim" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_refuses_dim(capsys):
    assert run("analyze", "--builtin", "so3", "--dim", "3") == EXIT_INVALID
    assert "--dim" in capsys.readouterr().err


def test_environment_records_the_flags_each_subcommand_has(tmp_path):
    run("analyze", "--builtin", "so3", "--samples", "200", "--out",
        str(tmp_path / "a.json"))
    run("reach", "--builtin", "planar_jd", "--budget", "100", "--out",
        str(tmp_path / "reach"))
    run("foliation", "--example", "sphere", "--theta-samples", "2", "--out",
        str(tmp_path / "fol"))
    docs = {"analyze": tmp_path / "a.json", "reach": tmp_path / "reach" / "coverage.json",
            "foliation": tmp_path / "fol" / "summary.json"}
    keys = {name: set(json.loads(path.read_text())["environment"])
            for name, path in docs.items()}
    assert keys == {
        "analyze": {"version", "seed", "tol", "samples", "budget", "coverage_threshold",
                    "grid_angular", "grid_radial", "projective"},
        "reach": {"version", "seed", "budget", "grid_angular", "grid_radial",
                  "projective"},
        "foliation": {"version", "seed", "tol"},
    }


def test_foliation_example_dim(tmp_path):
    # --dim used to reach only --example sphere; radial_graph_h03 stayed at 3
    out = tmp_path / "fol"
    assert run("foliation", "--example", "radial_graph_h03", "--dim", "4",
               "--theta-samples", "4", "--out", str(out)) == EXIT_OK
    doc = json.loads((out / "summary.json").read_text())
    assert doc["n"] == 4
    assert doc["mean_return_radius"] == pytest.approx(np.exp(-0.6), abs=1e-5)
    assert (out / "arcs.csv").read_text().splitlines()[0] == "theta_index,t,x_0,x_1,x_2,x_3"


def test_foliation_leaf_planes_exit_numerical(tmp_path, capsys, deadline):
    # the orbits of {shift, Lz} are the planes z = const, whose normal turns
    # radial on the equator; this used to run without end
    doc = tmp_path / "shift_lz.json"
    doc.write_text(json.dumps({"n": 3, "matrices": [
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]], [[0, -1, 0], [1, 0, 0], [0, 0, 0]]]}))
    with deadline(30):
        code = run("foliation", "--spec", str(doc), "--theta-samples", "2",
                   "--out", str(tmp_path / "fol"))
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
            if line.startswith("bilinctrl ")]


def test_readme_command_lines_parse():
    # every documented command line must name only flags its subcommand has
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"analyze", "reach", "foliation", "corpus"}
    for argv in commands:
        build_parser().parse_args(argv)
