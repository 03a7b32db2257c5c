import json
import subprocess
import sys

import pytest

from seeksim.cli import main
from seeksim.schedulers import ORACLE_MAX_REQUESTS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_case1_csv(capsys):
    code, out, err = run_cli(capsys, "run", "--case", "1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("algorithm,total_seek,average_seek,transfer_time,service_order")
    assert any(l.startswith("ODSA,195,24.375,") for l in lines)


def test_run_case2_json(capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    odsa = [r for r in doc["rows"] if r["algorithm"] == "ODSA"][0]
    assert odsa["total_seek"] == 150
    assert odsa["transfer_time_display"] == "18.76191"


def test_run_single_algorithm(capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "3", "--algo", "cscan")
    assert code == 0
    assert out.splitlines()[1].startswith("C-SCAN,325,")


def test_run_inline_requests(capsys):
    code, out, _ = run_cli(capsys, "run", "--head", "50", "--requests", "40,60", "--algo", "sstf")
    assert code == 0
    assert out.splitlines()[1].startswith("SSTF,30,")


def test_run_input_file_with_head_directive(capsys, tmp_path):
    path = tmp_path / "reqs.txt"
    path.write_text("head 45\n25 10 151 170 62 46 74 111\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "--input", str(path), "--algo", "odsa")
    assert code == 0
    assert out.splitlines()[1].startswith("ODSA,195,")


def test_run_head_path_series(capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "1", "--algo", "odsa", "--path")
    assert code == 0
    assert out.splitlines()[1] == "ODSA,0,45"
    assert out.splitlines()[2] == "ODSA,1,10"


def test_run_paper_table_flags_look_divergence(capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "2", "--paper-table")
    assert code == 0
    look = [l for l in out.splitlines() if l.startswith("LOOK,")][0]
    assert "23.875" in look and "differs from published table" in look


def test_run_optimal_oracle(capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "1", "--algo", "optimal")
    assert code == 0
    assert out.splitlines()[1].startswith("OPTIMAL,195,")


def test_custom_geometry_changes_cscan_wrap(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--head", "50", "--requests", "40,60,80", "--algo", "cscan",
        "--max-track", "100",
    )
    assert code == 0
    # up sweep 50->100 plus wrap 100 plus 0->40
    assert out.splitlines()[1].startswith("C-SCAN,190,")


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--case", "1", "--head", "45"),
        ("run", "--case", "1", "--requests", "1,2"),
        ("run", "--case", "1", "--min-track", "0"),
        ("run", "--head", "45"),
        ("run", "--requests", "1,2"),
        ("run", "--head", "45", "--requests", "1,2", "--input", "nope.txt"),
        ("run", "--head", "45", "--requests", "25,x"),
        ("run", "--head", "45", "--requests", "999"),
        ("run", "--head", "45", "--requests", "1,2", "--paper-table"),
        ("run", "--case", "1", "--path", "--paper-table"),
        (
            "run", "--head", "45", "--requests", ",".join(["5"] * (ORACLE_MAX_REQUESTS + 1)),
            "--algo", "optimal",
        ),
        ("gen", "--count", "0"),
        ("gen", "--count", "3", "--head", "300"),
        ("verify", "--trials", "0"),
        ("verify", "--max-n", str(ORACLE_MAX_REQUESTS + 1)),
        ("run", "--case", "1", "--rps", "nan"),
        ("run", "--case", "1", "--rps", "inf"),
        ("run", "--case", "1", "--algo", "odsa", "--rps", "1e-320"),
        ("run", "--case", "1", "--bytes", "9" * 400),
        ("run", "--head", str(2**1100), "--requests", f"1,{2**1100}", "--max-track", str(2**1100)),
    ],
)
def test_invalid_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_oversized_token_error_is_one_short_line(capsys):
    code, out, err = run_cli(capsys, "run", "--head", "5", "--requests", "1," + "7" * 5000)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert len(err.encode()) < 200 and "5000 characters" in err


@pytest.mark.parametrize(
    "requests",
    [",".join(["999"] * 2000), "1," + "7" * 4000],
    ids=["2000-tracks", "4000-digit-track"],
)
def test_out_of_range_error_is_one_short_line(capsys, requests):
    code, out, err = run_cli(capsys, "run", "--head", "5", "--requests", requests)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "flag", ["--head", "--min-track", "--max-track", "--bytes", "--track-bytes"]
)
def test_oversized_integer_flag_is_echoed_short(capsys, flag):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--head", "5", "--requests", "1", flag, "7" * 5000])
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert len(err.encode()) < 1024 and "5000 characters" in err
    assert "Traceback" not in err


def test_run_input_with_utf8_bom(capsys, tmp_path):
    path = tmp_path / "reqs.txt"
    path.write_bytes(b"\xef\xbb\xbfhead 45\n25 10 151\n")
    code, out, err = run_cli(capsys, "run", "--input", str(path))
    assert code == 0 and err == ""
    assert out == run_cli(capsys, "run", "--head", "45", "--requests", "25,10,151")[1]


@pytest.mark.parametrize("n", [10, ORACLE_MAX_REQUESTS])
def test_run_optimal_accepts_queue_up_to_bound(capsys, n):
    code, out, _ = run_cli(
        capsys, "run", "--head", "45", "--requests", ",".join(["5"] * n), "--algo", "optimal"
    )
    assert code == 0
    assert out.splitlines()[1].startswith("OPTIMAL,40,")


def test_verify_accepts_max_n_above_old_limit(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "20", "--seed", "3", "--max-n", "10")
    assert code == 0
    assert out == "trials=20 seed=3 max_n=10\npasses=20 failures=0\n"


def test_run_non_utf8_input_exits_2(capsys, tmp_path):
    path = tmp_path / "reqs.txt"
    path.write_bytes(b"head 45\n25 \xff 10\n")
    code, out, err = run_cli(capsys, "run", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_run_head_conflict_between_flag_and_file(capsys, tmp_path):
    path = tmp_path / "reqs.txt"
    path.write_text("head 10\n5\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--head", "45", "--input", str(path))
    assert code == 2 and "head" in err


def test_gen_is_deterministic_and_parseable(capsys, tmp_path):
    code, out1, _ = run_cli(capsys, "gen", "--count", "8", "--seed", "3", "--head", "45")
    assert code == 0
    code, out2, _ = run_cli(capsys, "gen", "--count", "8", "--seed", "3", "--head", "45")
    assert out1 == out2

    path = tmp_path / "w.txt"
    path.write_text(out1, encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "--input", str(path), "--algo", "odsa")
    assert code == 0


def test_gen_writes_output_file(capsys, tmp_path):
    path = tmp_path / "w.txt"
    code, out, _ = run_cli(capsys, "gen", "--count", "4", "--seed", "9", "-o", str(path))
    assert code == 0 and out == ""
    body = path.read_text(encoding="utf-8")
    assert body.startswith("# uniform workload:")
    assert len(body.splitlines()) == 5


def test_verify_success(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "40", "--seed", "11")
    assert code == 0
    assert "passes=40 failures=0" in out


def test_verify_failure_exits_1(capsys, monkeypatch):
    # no real counterexample exists, so fake a failing campaign to pin the
    # exit-code contract
    from seeksim import cli
    from seeksim.report import CampaignSummary

    failing = CampaignSummary(
        trials=2,
        seed=0,
        max_n=8,
        passes=1,
        failures=1,
        check_failures={"dominance:FIFO": 1},
        first_counterexample={"queue": [3], "head": 0, "checks": ["dominance:FIFO"]},
    )
    monkeypatch.setattr(cli, "run_property_campaign", lambda *a, **k: failing)
    code, out, _ = run_cli(capsys, "verify", "--trials", "2")
    assert code == 1
    assert "failures=1" in out
    assert "first counterexample" in out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "seeksim", "run", "--case", "1", "--algo", "odsa"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("ODSA,195,")
