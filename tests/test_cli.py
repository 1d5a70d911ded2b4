import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hocal.calibrate import CalibrationTable
from hocal.cli import main, parse_entropy, parse_nature
from hocal.entropy import EntropySpec
from hocal.errors import DomainError
from hocal.io import read_calibration_table, read_csv_rows, write_calibration_table
from hocal.mixture import mixture_from_arrays, project_k
from hocal.simplex import LabelSpace
from hocal.synth import BinaryRegression, TwoScenario


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_entropy_mini_language():
    assert parse_entropy("shannon") == EntropySpec.shannon()
    assert parse_entropy("shannon2") == EntropySpec.shannon(2.0)
    assert parse_entropy("shannon10") == EntropySpec.shannon(10.0)
    assert parse_entropy("shannon-nat") == EntropySpec.shannon(math.e)
    assert parse_entropy("brier") == EntropySpec.brier()
    assert parse_entropy("brier-scaled") == EntropySpec.brier(binary_scaled=True)
    assert parse_entropy("exp:0.5,-0.5") == EntropySpec.exponential((0.5, -0.5))
    assert parse_entropy("poly:0,1,-1") == EntropySpec.polynomial((0.0, 1.0, -1.0))
    with pytest.raises(DomainError):
        parse_entropy("gini")


def test_parse_nature():
    assert parse_nature("two-scenario-1") == TwoScenario(which=1)
    assert parse_nature("two-scenario-2") == TwoScenario(which=2)
    assert parse_nature("binary-regression") == BinaryRegression()
    with pytest.raises(DomainError):
        parse_nature("cifar")


def test_bounds_prints_the_frozen_sample_size(capsys):
    code, out, _ = run(
        ["bounds", "--l", "2", "--k", "2", "--eps", "0.1", "--delta", "0.05"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["required_samples"] == 1016
    assert payload["lattice_size"] == 3
    assert payload["hoc_bound"] == pytest.approx(0.1 + 2 / (2 * math.sqrt(2)))


def test_full_pipeline(tmp_path, capsys):
    # the README pipeline; 200 records reach 16 of the 20 bins
    def ok(*argv):
        code, out, _ = run([str(a) for a in argv], capsys)
        assert code == 0
        return json.loads(out)

    ds, ref, table = tmp_path / "ds.ldjson", tmp_path / "ref.ldjson", tmp_path / "table.ldjson"
    bins = [f"bin{i:02d}" for i in range(20)]
    summary = ok("gen", "--nature", "binary-regression", "--n", 200, "--k", 2, "--seed", 7,
                 "--out", ds, "--ref", ref)
    assert summary["partitions"] == 16

    summary = ok("calibrate", "--data", ds, "--reference", ref, "--fill-missing", "--out", table)
    assert (summary["records"], summary["partitions"]) == (200, 20)
    counts = read_calibration_table(table).counts
    assert sorted(counts) == bins and list(counts.values()).count(0) == 4

    w1csv = tmp_path / "w1.csv"
    summary = ok("evaluate", "--table", table, "--reference", ref, "--out", w1csv)
    assert 0.0 <= summary["worst"] <= 2.0
    rows = read_csv_rows(w1csv)
    assert [r["partition"] for r in rows] == bins
    assert max(float(r["w1"]) for r in rows) == pytest.approx(summary["worst"])

    for command, extra in (("decompose", ["--entropy", "shannon2"]), ("moments", ["--central", 2])):
        csv_path = tmp_path / f"{command}.csv"
        ok(command, "--table", table, *extra, "--out", csv_path)
        assert [r["partition"] for r in read_csv_rows(csv_path)] == bins

    for kind, budget in (("mass", "--delta"), ("interval", "--eps")):
        sets, audit = tmp_path / f"{kind}.ldjson", tmp_path / f"{kind}.csv"
        summary = ok("predset", "--table", table, "--alpha", 0.1, "--kind", kind, budget, 0.05,
                     "--reference", ref, "--audit", audit, "--out", sets)
        assert [json.loads(line)["partition"] for line in sets.read_text().splitlines()] == bins
        audit_rows = read_csv_rows(audit)
        assert [r["partition"] for r in audit_rows] == bins
        coverage = min(float(r["coverage"]) for r in audit_rows)
        assert summary["min_coverage"] == pytest.approx(coverage)


# SHA-256 of each stdout line and output file of the README command-line
# pipeline below. The binary pipeline takes the CDF route only; the
# multiclass pipeline is left out because its evaluate bits come from the
# lattice flow's max flow in scipy.sparse.csgraph, whose last bits may vary
# across scipy versions.
README_PIPELINE = (
    ("gen", "--nature", "binary-regression", "--n", "5000", "--k", "2", "--seed", "7",
     "--out", "data.ldjson", "--ref", "ref.ldjson"),
    ("calibrate", "--data", "data.ldjson", "--reference", "ref.ldjson", "--fill-missing",
     "--out", "table.ldjson"),
    ("evaluate", "--table", "table.ldjson", "--reference", "ref.ldjson", "--out", "w1.csv"),
    ("decompose", "--table", "table.ldjson", "--entropy", "shannon2", "--out", "uncertainty.csv"),
    ("moments", "--table", "table.ldjson", "--central", "2", "--out", "moments.csv"),
    ("predset", "--table", "table.ldjson", "--alpha", "0.1", "--delta", "0.05",
     "--reference", "ref.ldjson", "--audit", "audit.csv", "--out", "sets.ldjson"),
)
README_PIPELINE_SHA256 = {
    "stdout:gen": "9de18d76aeedcce084ded1d8d9bb44e02e15c84b153e6755d857111ad041611d",
    "stdout:calibrate": "cbc844e8ab76280dda16c267bf6812123fe7b6e05834ab41cbac39cbafd850d3",
    "stdout:evaluate": "6ce39661ccf38cfe03468dc6bce52a15411886ed6ff531cac36018a5ec3ed0df",
    "stdout:decompose": "716b8a8a454450c35cdcaf6bf20b61a6add416b688b6651b2d689953a8e03c80",
    "stdout:moments": "de23a7896680bf2d7f3ba7b9b38e44bb13f580ac8326d77d7999c7a2d9c6ddcb",
    "stdout:predset": "b97cf1d97796f5a352de913504dd899c429e13ca6bf866547cd40c373965659d",
    "audit.csv": "580d9bf6f8b666561d21bfeaf53dbbc24b0f2334e94e9ee523c83f81a04d088b",
    "data.ldjson": "da9e8357525fde4a988bb6f633839b199b2100b2b360b317b7aadfbd357ac20c",
    "moments.csv": "539711f1d7c15f9d7855ea37cf54ec46e83f39851db342c8bc4e9ed9ce2f0eae",
    "ref.ldjson": "98cf3deba994cc31e62d02dd49b39abeea149b846db352176a6462fb4234c3c8",
    "sets.ldjson": "c62323de092128f9f9ede825764068aacf10b2c0a20a2e0134332eb0def52248",
    "table.ldjson": "306e4a02d2f0e044e5524a40f55ff6037b8c195da383745348e412835726ff42",
    "uncertainty.csv": "8c08870860ac6673fb6a6efe15757dfa965635b1f3c905b68813d0806da25d5c",
    "w1.csv": "03aeaca0fa27b6f0d4c5c4b3037c2cc4d849e59f9555760c771834f886ab87fc",
}


def test_readme_pipeline_keeps_its_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = {}
    for argv in README_PIPELINE:
        code, out, _ = run(list(argv), capsys)
        assert code == 0
        digests[f"stdout:{argv[0]}"] = hashlib.sha256(out.encode()).hexdigest()
    for path in sorted(tmp_path.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == README_PIPELINE_SHA256


def test_evaluate_scores_a_three_label_table_without_scipy_optimize(tmp_path):
    space = LabelSpace(3)
    f = mixture_from_arrays([(0.1, 0.2, 0.7), (0.6, 0.3, 0.1)], [0.3, 0.7], space)
    h = mixture_from_arrays([(0.2, 0.4, 0.4)], [1.0], space)
    for name, m in (("table", f), ("ref", h)):
        write_calibration_table(
            CalibrationTable(entries={"a": project_k(m, 8)}, k=8, space=space),
            tmp_path / f"{name}.ldjson",
        )
    code = (
        "import sys\n"
        "from hocal.cli import main\n"
        "assert main(['evaluate', '--table', 'table.ldjson', '--reference', 'ref.ldjson',"
        " '--out', 'w1.csv']) == 0\n"
        "print('scipy.optimize' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
        check=True,
    ).stdout.splitlines()
    assert json.loads(out[0])["command"] == "evaluate"
    assert out[1] == "False"


def test_gen_is_byte_stable(tmp_path, capsys):
    d1, d2 = tmp_path / "a.ldjson", tmp_path / "b.ldjson"
    for out in (d1, d2):
        code, _, _ = run(
            ["gen", "--nature", "binary-regression", "--n", "300", "--k", "3",
             "--seed", "21", "--out", str(out)],
            capsys,
        )
        assert code == 0
    assert d1.read_bytes() == d2.read_bytes()


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOCAL_SEED", "7")
    with_env = tmp_path / "env.ldjson"
    code, _, _ = run(
        ["gen", "--nature", "two-scenario-1", "--n", "50", "--k", "1", "--out", str(with_env)],
        capsys,
    )
    assert code == 0
    explicit = tmp_path / "flag.ldjson"
    code, _, _ = run(
        ["gen", "--nature", "two-scenario-1", "--n", "50", "--k", "1",
         "--seed", "7", "--out", str(explicit)],
        capsys,
    )
    assert code == 0
    assert with_env.read_bytes() == explicit.read_bytes()


def test_decompose_scenario_tables(tmp_path, capsys):
    # exact k=2 reference tables: scenario 1 smooths to (1, 1/2, 1/2),
    # scenario 2 keeps its vertices and splits as (1, 0, 1)
    for which, expected_au in (("1", 0.5), ("2", 0.0)):
        ds = tmp_path / f"ds{which}.ldjson"
        ref = tmp_path / f"ref{which}.ldjson"
        run(
            ["gen", "--nature", f"two-scenario-{which}", "--n", "1", "--k", "2",
             "--seed", "1", "--out", str(ds), "--ref", str(ref)],
            capsys,
        )
        dec = tmp_path / f"dec{which}.csv"
        code, _, _ = run(
            ["decompose", "--table", str(ref), "--entropy", "shannon2", "--out", str(dec)],
            capsys,
        )
        assert code == 0
        row = read_csv_rows(dec)[0]
        assert float(row["pu"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["au"]) == pytest.approx(expected_au, abs=1e-12)
        assert float(row["eu"]) == pytest.approx(1.0 - expected_au, abs=1e-12)


def test_moments_subcommand(tmp_path, capsys):
    ds = tmp_path / "ds.ldjson"
    ref = tmp_path / "ref.ldjson"
    run(
        ["gen", "--nature", "two-scenario-2", "--n", "1", "--k", "2",
         "--seed", "1", "--out", str(ds), "--ref", str(ref)],
        capsys,
    )
    mom = tmp_path / "mom.csv"
    code, _, _ = run(
        ["moments", "--table", str(ref), "--eps", "0.1", "--central", "2", "--out", str(mom)],
        capsys,
    )
    assert code == 0
    row = read_csv_rows(mom)[0]
    assert float(row["moment_1"]) == pytest.approx(0.5, abs=1e-12)
    assert float(row["moment_2"]) == pytest.approx(0.5, abs=1e-12)
    assert float(row["bound_1"]) == pytest.approx(0.05, abs=1e-12)
    assert float(row["central_2"]) == pytest.approx(0.25, abs=1e-12)


def test_predset_subcommand_with_audit(tmp_path, capsys):
    ds = tmp_path / "ds.ldjson"
    ref = tmp_path / "ref.ldjson"
    run(
        ["gen", "--nature", "two-scenario-1", "--n", "200", "--k", "2",
         "--seed", "3", "--out", str(ds), "--ref", str(ref)],
        capsys,
    )
    table = tmp_path / "table.ldjson"
    run(["calibrate", "--data", str(ds), "--out", str(table)], capsys)
    sets_path = tmp_path / "sets.ldjson"
    audit = tmp_path / "audit.csv"
    code, out, _ = run(
        ["predset", "--table", str(table), "--alpha", "0.2", "--delta", "0.5",
         "--reference", str(ref), "--audit", str(audit), "--out", str(sets_path)],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["min_coverage"] >= 0.0
    lines = sets_path.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["partition"] == "all"
    assert rec["radius"] == pytest.approx(0.5)
    audit_rows = read_csv_rows(audit)
    assert audit_rows[0]["partition"] == "all"
    assert float(audit_rows[0]["target"]) == pytest.approx(0.8)


@pytest.mark.parametrize("reference", ["missing", "without-the-partition"])
def test_predset_writes_nothing_when_its_reference_fails(tmp_path, capsys, reference):
    mix = mixture_from_arrays([(0.5, 0.5)], [1.0], LabelSpace(2))
    table, ref = tmp_path / "table.ldjson", tmp_path / "ref.ldjson"
    write_calibration_table(CalibrationTable(entries={"a": mix}, k=2, space=LabelSpace(2)), table)
    if reference == "without-the-partition":
        write_calibration_table(CalibrationTable(entries={"b": mix}, k=2, space=LabelSpace(2)), ref)
    sets_path, audit = tmp_path / "sets.ldjson", tmp_path / "audit.csv"
    code, out, err = run(
        ["predset", "--table", str(table), "--alpha", "0.2", "--delta", "0.5",
         "--reference", str(ref), "--audit", str(audit), "--out", str(sets_path)],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    expected = "FileNotFoundError" if reference == "missing" else "FormatError"
    assert json.loads(err)["error"] == expected
    assert not sets_path.exists() and not audit.exists()


def test_fitpoly_subcommand(tmp_path, capsys):
    out_path = tmp_path / "fit.json"
    code, out, _ = run(
        ["fitpoly", "--entropy", "brier-scaled", "--degree", "2", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["coeffs"] == pytest.approx([0.0, 4.0, -4.0], abs=1e-9)
    assert payload["sup_error"] <= 1e-12
    assert json.loads(out)["degree"] == 2


def test_bin_subcommand(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "argmax_class,max_prob\n"
        "0,0.73\n"
        "1,1.0\n"
        "2,0.0\n"
    )
    out_path = tmp_path / "parts.csv"
    code, _, _ = run(["bin", "--scores", str(scores), "--out", str(out_path)], capsys)
    assert code == 0
    rows = read_csv_rows(out_path)
    assert [r["partition"] for r in rows] == ["c0_s07", "c1_s09", "c2_s00"]


def test_bin_rejects_bad_probability(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("argmax_class,max_prob\n0,1.5\n")
    code, _, err = run(["bin", "--scores", str(scores), "--out", str(tmp_path / "o.csv")], capsys)
    assert code == 1
    diag = json.loads(err)
    assert diag["error"] == "FormatError"


@pytest.mark.parametrize(
    "slices,text,error",
    [
        ("0", "argmax_class,max_prob\n0,0.5\n", "DomainError"),
        ("10", "argmax_class,max_prob\n", "FormatError"),  # no rows
        ("10", "argmax_class,prob\n0,0.5\n", "FormatError"),  # no max_prob column
        ("10", "argmax_class,max_prob\n1.5,0.5\n", "FormatError"),
        ("10", "argmax_class,max_prob\n-1,0.5\n", "FormatError"),
    ],
)
def test_bin_errors_give_a_json_error(tmp_path, capsys, slices, text, error):
    scores = tmp_path / "scores.csv"
    scores.write_text(text)
    out_path = tmp_path / "o.csv"
    argv = ["bin", "--scores", str(scores), "--slices", slices, "--out", str(out_path)]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == error
    assert "\n" not in err.strip()
    assert not out_path.exists()


NOT_UTF8 = b"\xff\xfe" + "argmax_class,max_prob\n0,0.5\n".encode("utf-16-le")


@pytest.mark.parametrize(
    "command,option,data,where",
    [
        ("bin", "--scores", b"argmax_class,max_prob\n1\n", "(line 2)"),  # a field short
        ("bin", "--scores", b"argmax_class,max_prob\n0,0.5\n1,0.5,extra\n", "(line 3)"),
        ("bin", "--scores", NOT_UTF8, "is not UTF-8"),
        ("calibrate", "--data", NOT_UTF8, "is not UTF-8"),
        ("decompose", "--table", NOT_UTF8, "is not UTF-8"),
    ],
)
def test_ragged_and_undecodable_files_give_a_json_error(
    tmp_path, capsys, command, option, data, where
):
    path, out_path = tmp_path / "input", tmp_path / "out"
    path.write_bytes(data)
    argv = [command, option, str(path), "--out", str(out_path)]
    if command == "decompose":
        argv += ["--entropy", "brier"]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    diag = json.loads(err)
    assert diag["error"] == "FormatError"
    assert str(path) in diag["message"] and where in diag["message"]
    assert not out_path.exists()


@pytest.mark.parametrize("k", ["-1", "0"])
@pytest.mark.parametrize("nature", ["two-scenario-2", "binary-regression"])
def test_gen_refuses_snapshot_sizes_below_one(tmp_path, capsys, nature, k):
    out_path = tmp_path / "ds.ldjson"
    argv = ["gen", "--nature", nature, "--n", "10", "--k", k, "--seed", "1", "--out", str(out_path)]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "DomainError", "message": f"snapshot size must be >= 1, got {k}"}
    assert not out_path.exists()


def test_gen_with_an_over_cap_reference_writes_nothing(tmp_path, capsys):
    # the k = 10^6 binary lattice has 10^6 + 1 points, one over the cap
    out_path, ref_path = tmp_path / "ds.ldjson", tmp_path / "ref.ldjson"
    argv = ["gen", "--nature", "binary-regression", "--n", "1", "--k", "1000000", "--seed", "1",
            "--out", str(out_path), "--ref", str(ref_path)]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "CapExceeded"
    assert not out_path.exists() and not ref_path.exists()


def test_domain_error_diagnostic_shape(capsys):
    code, out, err = run(
        ["bounds", "--l", "2", "--k", "2", "--eps", "2.0", "--delta", "0.05"], capsys
    )
    assert code == 1
    assert out == ""
    diag = json.loads(err)
    assert diag["error"] == "DomainError"
    assert "eps" in diag["message"]
    assert "\n" not in err.strip()


def test_usage_error_exit_code(capsys):
    code, _, err = run(["evaluate", "--table", "x.ldjson"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_unknown_entropy_via_cli(tmp_path, capsys):
    ds = tmp_path / "ds.ldjson"
    ref = tmp_path / "ref.ldjson"
    run(
        ["gen", "--nature", "two-scenario-1", "--n", "1", "--k", "1",
         "--seed", "1", "--out", str(ds), "--ref", str(ref)],
        capsys,
    )
    code, _, err = run(
        ["decompose", "--table", str(ref), "--entropy", "nope", "--out", str(tmp_path / "d.csv")],
        capsys,
    )
    assert code == 1
    assert json.loads(err)["error"] == "DomainError"


TABLE_HEADER = '{"format_version": 1, "k": 1, "kind": "calibration_table", "num_labels": 2}\n'


@pytest.mark.parametrize(
    "record,error",
    [
        ('{"count": "many", "partition": "a", "points": [[1.0, 0.0]], "weights": [1.0]}', "FormatError"),
        ('{"count": true, "partition": "a", "points": [[1.0, 0.0]], "weights": [1.0]}', "FormatError"),
        ('{"count": 3, "partition": "a", "points": [[1.0, 0.0]], "weights": ["x"]}', "FormatError"),
        ('{"count": 3, "partition": "a", "points": [1.0], "weights": [1.0]}', "FormatError"),
        ('{"count": 3, "partition": "a", "points": [[1.0, 0.0], [0.0, 1.0]], "weights": [NaN, 1.0]}',
         "InvalidDistribution"),
        ('{"count": 3, "partition": "a", "points": [[NaN, 1.0]], "weights": [1.0]}', "InvalidDistribution"),
        ('{"count": 3, "partition": "a", "points": [[null, 1.0]], "weights": [1.0]}', "FormatError"),
        ('{"count": 3, "partition": "a", "points": [[0.0, 1.0]], "weights": [null]}', "FormatError"),
        ('{"count": 3, "partition": "a", "points": [[1.0, 0.0], [0.0]], "weights": [0.5, 0.5]}',
         "DimensionMismatch"),
        # JSON true and "0.5" are no numbers, although Python reads them as 1 and 0.5
        ('{"count": 3, "partition": "a", "points": [[true, false]], "weights": [true]}', "FormatError"),
        ('{"count": 3, "partition": "a", "points": [["0.5", "0.5"]], "weights": ["1"]}', "FormatError"),
        ('{"count": 3, "partition": "a", "points": [[1.0, 0.0]], "weights": [true]}', "FormatError"),
        ('{"count": 3, "partition": "a", "points": [[[1.0], 0.0]], "weights": [1.0]}', "FormatError"),
        pytest.param('{"count": 3, "partition": "a", "points": [[1' + "0" * 400 + ', 0]], "weights": [1]}',
                     "FormatError", id="integer-too-large-for-a-float"),
    ],
)
def test_malformed_table_numbers_give_a_json_error(tmp_path, capsys, record, error):
    table = tmp_path / "table.ldjson"
    table.write_text(TABLE_HEADER + record + "\n")
    out_path = tmp_path / "dec.csv"
    code, out, err = run(
        ["decompose", "--table", str(table), "--entropy", "shannon2", "--out", str(out_path)], capsys
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == error
    assert "\n" not in err.strip()
    assert not out_path.exists()


@pytest.mark.parametrize(
    "command,header",
    [
        ("calibrate", {"format_version": True, "k": True, "num_labels": 2}),
        ("calibrate", {"format_version": True, "k": 1, "num_labels": 2}),
        ("calibrate", {"format_version": 1, "k": True, "num_labels": 2}),
        ("calibrate", {"format_version": 1, "k": 1, "num_labels": True}),
        ("moments", {"format_version": 1, "k": True, "kind": "calibration_table", "num_labels": 2}),
        ("moments", {"format_version": 1, "k": 1, "kind": "calibration_table", "num_labels": True}),
    ],
)
def test_boolean_header_fields_give_a_json_error(tmp_path, capsys, command, header):
    # JSON true equals 1 in Python, but it is not a version, a label count or k
    path, out_path = tmp_path / "input.ldjson", tmp_path / "out"
    if command == "calibrate":
        record = {"labels": [0], "partition": "a"}
        argv = ["calibrate", "--data", str(path), "--out", str(out_path)]
    else:
        record = {"count": 1, "partition": "a", "points": [[1.0, 0.0]], "weights": [1.0]}
        argv = ["moments", "--table", str(path), "--eps", "0.05", "--out", str(out_path)]
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    diag = json.loads(err)
    assert diag["error"] == "FormatError"
    assert str(path) in diag["message"] and "(line 1)" in diag["message"]
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--data", "{tmp}/missing.ldjson", "--out", "{tmp}/table.ldjson"],
        ["gen", "--nature", "two-scenario-1", "--n", "5", "--k", "1", "--seed", "1", "--out", "{tmp}"],
        ["gen", "--nature", "two-scenario-1", "--n", "5", "--k", "1", "--seed", "1",
         "--out", "{tmp}/no/such/dir/ds.ldjson"],
        ["fitpoly", "--entropy", "exp:a,b", "--degree", "2"],
        ["fitpoly", "--entropy", "poly:1,x", "--degree", "2"],
        ["fitpoly", "--entropy", "poly:0,nan", "--degree", "2"],
        ["fitpoly", "--entropy", "exp:nan,0", "--degree", "2"],
        ["fitpoly", "--entropy", "shannoninf", "--degree", "2"],
        ["fitpoly", "--entropy", "shannon1e400", "--degree", "2"],
    ],
)
def test_unusable_paths_and_entropy_numbers_give_a_json_error(tmp_path, capsys, argv):
    code, out, err = run([a.format(tmp=tmp_path) for a in argv], capsys)
    assert code == 1
    assert out == ""
    diag = json.loads(err)
    assert set(diag) == {"error", "message"}
    assert "\n" not in err.strip()


def _assert_domain_error_naming(option, argv, tmp_path, capsys):
    ref = tmp_path / "ref.ldjson"
    run(
        ["gen", "--nature", "two-scenario-2", "--n", "4", "--k", "2",
         "--seed", "1", "--out", str(tmp_path / "ds.ldjson"), "--ref", str(ref)],
        capsys,
    )
    out_path = tmp_path / "out"
    code, out, err = run(argv + ["--table", str(ref), "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    diag = json.loads(err)
    assert diag["error"] == "DomainError"
    assert option in diag["message"]
    assert "\n" not in err.strip()
    assert not out_path.exists()


@pytest.mark.parametrize("eps", ["nan", "inf", "-0.5"])
@pytest.mark.parametrize("command", ["moments", "predset"])
def test_bad_eps_gives_a_json_error(tmp_path, capsys, eps, command):
    argv = [command, "--eps", eps]
    if command == "predset":
        argv += ["--alpha", "0.2", "--kind", "interval"]
    _assert_domain_error_naming("eps", argv, tmp_path, capsys)


@pytest.mark.parametrize("delta", ["nan", "inf", "-0.1"])
def test_bad_delta_gives_a_json_error(tmp_path, capsys, delta):
    argv = ["predset", "--delta", delta, "--alpha", "0.2", "--kind", "mass"]
    _assert_domain_error_naming("delta", argv, tmp_path, capsys)


def _run_hocal(argv, cwd):
    """The command line in a fresh interpreter, so that warnings reach stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "hocal.cli", *argv], cwd=cwd, env=env, capture_output=True, text=True
    )


def _one_json_error(proc) -> dict:
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert set(diag) == {"error", "message"}
    return diag


@pytest.mark.parametrize(
    "argv",
    [
        ["--l", "2", "--k", "2", "--eps", "1e-200", "--delta", "0.05"],  # eps**2 underflows to 0
        ["--l", "2", "--k", "2", "--eps", "1e-160", "--delta", "0.05"],  # the count overflows
        ["--l", "2", "--k", "2", "--eps", "0.1", "--delta", "1e-320"],  # so does 1 / delta
        ["--l", "1000", "--k", "1000", "--eps", "0.1", "--delta", "0.05"],  # lattice size > 1e308
    ],
)
def test_bounds_refuses_sample_counts_beyond_a_float(tmp_path, argv):
    diag = _one_json_error(_run_hocal(["bounds", *argv], tmp_path))
    assert diag["error"] == "DomainError"
    assert all(f"{name}=" in diag["message"] for name in ("eps", "delta"))
    assert "is not a finite float" in diag["message"]


def test_bounds_refuses_a_snapshot_size_beyond_a_float(tmp_path):
    argv = ["bounds", "--l", "2", "--k", "1" + "0" * 400, "--eps", "0.1", "--delta", "0.05"]
    diag = _one_json_error(_run_hocal(argv, tmp_path))
    assert diag["error"] == "DomainError"
    assert "is beyond a float" in diag["message"]


@pytest.mark.parametrize("k", [10**20, 10**400], ids=["1e20", "1e400"])
def test_tables_with_k_above_2_53_give_one_json_error(tmp_path, k):
    # above 2**53, k * p and its rounding are no longer exact integers
    header = {"format_version": 1, "k": k, "kind": "calibration_table", "num_labels": 2}
    record = {"count": 2, "partition": "a", "points": [[1.0, 0.0], [0.5, 0.5]], "weights": [0.25, 0.75]}
    (tmp_path / "table.ldjson").write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    proc = _run_hocal(["moments", "--table", "table.ldjson", "--out", "m.csv"], tmp_path)
    assert _one_json_error(proc)["error"] == "DomainError"
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command", ["fitpoly", "decompose"])
def test_an_overflowing_polynomial_entropy_gives_one_json_error(tmp_path, command):
    (tmp_path / "table.ldjson").write_text(
        TABLE_HEADER + '{"count": 1, "partition": "a", "points": [[1.0, 0.0]], "weights": [1.0]}\n'
    )
    argv = {"fitpoly": ["--degree", "2"], "decompose": ["--table", "table.ldjson", "--out", "d.csv"]}
    proc = _run_hocal([command, "--entropy", "poly:1e308,1e308", *argv[command]], tmp_path)
    assert _one_json_error(proc)["error"] == "DomainError"


# --- the CLI contract under malformed input -------------------------------

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.text(max_size=3),
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.lists(st.lists(_SCALARS, max_size=3), max_size=3),
)


def _records(keys, valid):
    """Lines that are a valid record, a record with fuzzed fields, or junk."""
    fuzzed = st.dictionaries(st.sampled_from(keys), _VALUES, max_size=len(keys))
    return st.one_of(
        st.just(valid),
        fuzzed.map(lambda rec: json.dumps(rec, allow_nan=True)),
        st.text(max_size=12),
    )


_DATASET_HEADER = st.sampled_from([
    '{"format_version": 1, "k": 2, "num_labels": 3}',
    '{"format_version": 1, "k": 0, "num_labels": 3}',
    '{"format_version": 2, "k": 2, "num_labels": 3}',
    '{"format_version": 1, "k": 2.5, "num_labels": true}',
    "[]",
    "",
])
_OVERSIZED_K_TABLE_HEADERS = [
    '{"format_version": 1, "k": 100000000000000000000, "kind": "calibration_table", "num_labels": 3}',
    '{"format_version": 1, "k": 1' + "0" * 400 + ', "kind": "calibration_table", "num_labels": 3}',
]
_TABLE_HEADER = st.sampled_from([
    '{"format_version": 1, "k": 2, "kind": "calibration_table", "num_labels": 3}',
    *_OVERSIZED_K_TABLE_HEADERS,
    '{"format_version": 1, "k": 2, "kind": "dataset", "num_labels": 3}',
    '{"format_version": 1, "k": -1, "kind": "calibration_table", "num_labels": 3}',
    "{",
])
_DATASET_LINES = st.lists(
    _records(["labels", "partition"], '{"labels": [0, 2], "partition": "a"}'), max_size=4
)
_TABLE_RECORD = (
    '{"count": 2, "partition": "a", "points": [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5]], '
    '"weights": [0.25, 0.75]}'
)
_TABLE_LINES = st.lists(
    _records(["count", "partition", "points", "weights"], _TABLE_RECORD), max_size=4
)
_NUMBER = st.one_of(
    st.integers(min_value=-3, max_value=40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "x", "1e309", "-0", "0x10", "1_000", " 2"]),
    st.text(max_size=4),
)
_COMMANDS = [
    ["calibrate", "--data", "{dataset}", "--out", "{dir}/t.ldjson"],
    ["decompose", "--table", "{table}", "--entropy", "brier", "--out", "{dir}/d.csv"],
    ["moments", "--table", "{table}", "--eps", "{a}", "--out", "{dir}/m.csv"],
    ["evaluate", "--table", "{table}", "--reference", "{table}", "--out", "{dir}/w.csv"],
    ["predset", "--table", "{table}", "--alpha", "{a}", "--delta", "{b}",
     "--reference", "{table}", "--audit", "{dir}/a.csv", "--out", "{dir}/s.ldjson"],
    ["predset", "--table", "{table}", "--kind", "interval", "--alpha", "{a}",
     "--eps", "{b}", "--out", "{dir}/i.ldjson"],
    ["bounds", "--l", "{a}", "--k", "{b}", "--eps", "{c}", "--delta", "{d}"],
    ["fitpoly", "--entropy", "shannon2", "--degree", "{a}"],
    ["gen", "--nature", "two-scenario-2", "--n", "{a}", "--k", "{b}", "--seed", "{c}",
     "--out", "{dir}/g.ldjson"],
]


def _every_table_command_on_oversized_k(test):
    """An example per table command and oversized-k header, with a valid
    record: random draws pair them in about 2 of 100 examples."""
    for header in _OVERSIZED_K_TABLE_HEADERS:
        for command in _COMMANDS:
            if "{table}" in command:
                test = example(command=command, numbers=["0.1"] * 4,
                               dataset=('{"format_version": 1, "k": 2, "num_labels": 3}', []),
                               table=(header, [_TABLE_RECORD]))(test)
    return test


@settings(deadline=None, max_examples=100)
@given(
    command=st.sampled_from(_COMMANDS),
    numbers=st.lists(_NUMBER, min_size=4, max_size=4),
    dataset=st.tuples(_DATASET_HEADER, _DATASET_LINES),
    table=st.tuples(_TABLE_HEADER, _TABLE_LINES),
)
@_every_table_command_on_oversized_k
def test_cli_contract_holds_for_malformed_files_and_numbers(command, numbers, dataset, table):
    # any input ends in exit 0, 1 or 2, and every failure is one line of
    # JSON on stderr
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"dir": tmp, "dataset": f"{tmp}/ds.ldjson", "table": f"{tmp}/table.ldjson"}
        for key, (header, lines) in (("dataset", dataset), ("table", table)):
            with open(paths[key], "w", encoding="utf-8") as fh:
                fh.write("\n".join([header, *lines]) + "\n")
        argv = [arg.format(**paths, **dict(zip("abcd", numbers))) for arg in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_calibrate_reads_a_partition_holding_a_raw_line_separator(tmp_path, newline):
    # JSON strings may hold U+2028 raw; only "\n" ends a dataset line
    name = "a\u2028b"
    lines = ['{"format_version": 1, "k": 1, "num_labels": 2}']
    lines += [json.dumps({"labels": [y], "partition": name}, ensure_ascii=False) for y in (0, 1, 0)]
    data, table_path = tmp_path / "ds.ldjson", tmp_path / "table.ldjson"
    data.write_bytes((newline.join(lines) + newline).encode("utf-8"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run(
        [sys.executable, "-m", "hocal.cli", "calibrate", "--data", str(data), "--out", str(table_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    table = read_calibration_table(table_path)
    assert list(table.entries) == [name]
    assert table.counts[name] == 3
