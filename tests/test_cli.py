import hashlib
import json

import pytest

from superpoly.cli import main, parse_span


def capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_parse_span():
    assert parse_span("2..5") == [2, 3, 4, 5]
    assert parse_span("7") == [7]


def test_gen_p0(capsys):
    code, doc = capture(capsys, ["gen", "--r", "2", "--m", "2", "--j0", "-4",
                                 "--kmax", "0"])
    assert code == 0
    by_k = {e["k"]: e["coeffs"] for e in doc["report"]["polys"]}
    assert by_k[0] == ["1"]


def test_verify_ode_small_grid(capsys):
    code, doc = capture(capsys, ["verify-ode", "--type", "2",
                                 "--r-range", "2..3", "--m-range", "2..3"])
    assert code == 0
    assert doc["report"]["summary"]["pass"]


def test_kernel_subcommand(capsys):
    code, doc = capture(capsys, ["kernel", "--type", "2", "--r", "2",
                                 "--m", "4", "--n", "6"])
    assert code == 0
    assert doc["report"]["dimension"] == 1
    assert doc["report"]["basis"] == [["1", "0", "-3/2"]]


def test_indicial_subcommand(capsys):
    code, doc = capture(capsys, ["indicial", "--type", "1", "--r", "2",
                                 "--m", "4", "--n", "8"])
    assert code == 0
    assert doc["report"]["admissible_degrees"] == [2]


def test_superpose_finding_exits_1(capsys):
    code, doc = capture(capsys, ["superpose", "--r", "3", "--m", "2",
                                 "--j0", "-4"])
    assert code == 1
    assert doc["status"] == "fail"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--type", "3", "--r", "2", "--m", "2", "--n", "4"])
    assert exc.value.code == 2


def test_domain_error_exits_2(capsys):
    code = main(["gen", "--r", "1", "--m", "2", "--j0", "-1"])
    assert code == 2


def test_report_idempotent(capsys):
    argv = ["identify", "--type", "1", "--r", "2", "--m", "3"]
    _, doc1 = capture(capsys, argv)
    _, doc2 = capture(capsys, argv)
    assert doc1 == doc2  # wall time lives outside the report envelope


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["gegenbauer", "--m", "3", "--nmax", "4", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["lambda"] == "4/3"


def test_series_subcommand(capsys):
    code, doc = capture(capsys, ["series", "--type", "2", "--r", "2",
                                 "--m", "3", "--K", "20"])
    assert code == 0
    assert doc["report"]["zero_through"] == 16


def test_pde_subcommands(capsys):
    code, doc = capture(capsys, ["pde", "--type", "2", "--r", "2", "--m", "4",
                                 "--K", "12"])
    assert code == 0
    code, doc = capture(capsys, ["pde", "--type", "1", "--r", "2", "--m", "2",
                                 "--K", "12"])
    assert code == 1  # published type-1 identity fails; reported as finding
    code, doc = capture(capsys, ["pde", "--type", "1", "--r", "2", "--m", "2",
                                 "--K", "12", "--corrected"])
    assert code == 0


def test_fit_ode_subcommand(capsys):
    code, doc = capture(capsys, ["fit-ode", "--type", "1", "--r", "2",
                                 "--m", "2", "--kmax", "40"])
    assert code == 0
    assert doc["report"]["closed_operator_in_span"] is True


def test_jobs_parallel_matches_serial(capsys):
    argv = ["verify-ode", "--type", "1", "--r-range", "2..3", "--m-range", "2..3"]
    _, serial = capture(capsys, argv)
    _, parallel = capture(capsys, argv + ["--jobs", "2"])
    assert serial["report"] == parallel["report"]


def test_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    workers = []

    class SerialPool:  # records max_workers, maps in this process
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("superpoly.cli.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("superpoly.cli.os.cpu_count", lambda: 3)
    argv = ["verify-ode", "--type", "2", "--r-range", "2..3", "--m-range", "2..3"]
    _, serial = capture(capsys, argv)
    for jobs in ("0", "-5", "1"):
        assert capture(capsys, argv + ["--jobs", jobs])[1]["report"] == serial["report"]
    assert workers == []  # at most one worker: no pool at all
    _, clamped = capture(capsys, argv + ["--jobs", "1000000"])
    assert workers == [3]
    assert clamped["report"] == serial["report"]


@pytest.mark.parametrize("flag,value", [("--r-range", "5..2"), ("--r-range", "x..3"),
                                        ("--m-range", "3..x"), ("--points", "x..3")])
def test_bad_range_exits_2(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify-ode", "--type", "2", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert value in err and "Traceback" not in err


# sha256 of the stdout report, recorded before the modular-first elimination
# replaced whole-matrix Bareiss inside linalg.nullspace
GOLDEN_REPORTS = [
    (["fit-ode", "--type", "1", "--r", "2", "--m", "2", "--kmax", "40"],
     "bab00f23ccb08451c24eef92e832b13bc357d2157be03e9b25c8f709690f8906"),
    (["fit-ode", "--type", "2", "--r", "2", "--m", "3", "--kmax", "40"],
     "ae273dbcf2cfc5fc700c060ff7972179bb6ace1a8449c1ac6fb5db53be5ada24"),
    # kernel_dim 18
    (["fit-ode", "--type", "1", "--r", "2", "--m", "3", "--j0", "-3", "--kmax", "40"],
     "a4d18d067d456b23d7bf0406a0b5a7f731be9e8c39921aa4c4fe16ee0a4d54ad"),
    (["kernel", "--type", "2", "--r", "4", "--m", "4", "--n", "40", "--bound", "80"],
     "7642b0a6f4f9ee53e551336247d120bbc58bd8ecec4eff933ac327bb816408c1"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_REPORTS,
                         ids=[" ".join(a) for a, _ in GOLDEN_REPORTS])
def test_elimination_reports_byte_identical(capsys, argv, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
