import json
import math

import pytest

from hocal.cli import main, parse_entropy, parse_nature
from hocal.entropy import EntropySpec
from hocal.errors import DomainError
from hocal.io import read_csv_rows
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
    ds = tmp_path / "ds.ldjson"
    ref = tmp_path / "ref.ldjson"
    table = tmp_path / "table.ldjson"
    w1csv = tmp_path / "w1.csv"

    code, out, _ = run(
        ["gen", "--nature", "two-scenario-2", "--n", "400", "--k", "2",
         "--seed", "7", "--out", str(ds), "--ref", str(ref)],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["partitions"] == 1

    code, out, _ = run(
        ["calibrate", "--data", str(ds), "--out", str(table)], capsys
    )
    assert code == 0
    assert json.loads(out)["records"] == 400

    code, out, _ = run(
        ["evaluate", "--table", str(table), "--reference", str(ref), "--out", str(w1csv)],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert 0.0 <= summary["worst"] <= 2.0
    rows = read_csv_rows(w1csv)
    assert [r["partition"] for r in rows] == ["all"]
    assert float(rows[0]["w1"]) == pytest.approx(summary["worst"])


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
    "argv",
    [
        ["calibrate", "--data", "{tmp}/missing.ldjson", "--out", "{tmp}/table.ldjson"],
        ["gen", "--nature", "two-scenario-1", "--n", "5", "--k", "1", "--seed", "1", "--out", "{tmp}"],
        ["gen", "--nature", "two-scenario-1", "--n", "5", "--k", "1", "--seed", "1",
         "--out", "{tmp}/no/such/dir/ds.ldjson"],
        ["fitpoly", "--entropy", "exp:a,b", "--degree", "2"],
        ["fitpoly", "--entropy", "poly:1,x", "--degree", "2"],
        ["fitpoly", "--entropy", "poly:0,nan", "--degree", "2"],
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
