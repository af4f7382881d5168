import hashlib
import json

import pytest

from tokengraphs import cli, tokens
from tokengraphs.cli import main, parse_graph_spec
from tokengraphs.graphs import GraphError, complete_bipartite_graph, cycle_graph


def test_parse_graph_specs():
    assert parse_graph_spec("cycle:5") == cycle_graph(5)
    assert parse_graph_spec("kbip:2,5") == complete_bipartite_graph(2, 5)
    assert parse_graph_spec("match:2,1").n == 5
    assert parse_graph_spec("star:4").degree(0) == 4
    assert parse_graph_spec("complete:4").edge_count == 6
    assert parse_graph_spec("path:3").edge_count == 2


def test_parse_graph_spec_from_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n1 2\n2 3\n")
    g = parse_graph_spec(f"file:{path}")
    assert g.n == 3 and g.edge_count == 2


def test_cli_missing_edge_list_file_is_usage_error(tmp_path, capsys):
    assert main(["nu", f"file:{tmp_path / 'absent.txt'}", "-k", "1"]) == 2
    err = capsys.readouterr().err
    assert "absent.txt" in err and "Traceback" not in err


def test_cli_non_integer_edge_line_is_usage_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n1 2\n2 x\n")
    assert main(["nu", f"file:{path}", "-k", "1"]) == 2
    assert "'2 x'" in capsys.readouterr().err


def test_cli_non_integer_edge_list_header_is_usage_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("three 2\n1 2\n2 3\n")
    assert main(["nu", f"file:{path}", "-k", "1"]) == 2
    assert "header" in capsys.readouterr().err


def test_parse_graph_spec_errors():
    for bad in ("cycle", "wheel:5", "path:x", "kbip:3"):
        with pytest.raises(GraphError):
            parse_graph_spec(bad)


def test_cli_beta(capsys):
    assert main(["beta", "cycle:5", "-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "beta = 5" in out and "{" in out


def test_cli_nu(capsys):
    assert main(["nu", "star:5", "-k", "3"]) == 0
    assert "nu = 10" in capsys.readouterr().out


def test_cli_build_writes_files(tmp_path, capsys):
    dot = tmp_path / "out.dot"
    js = tmp_path / "out.json"
    code = main(["build", "kbip:2,5", "-k", "2", "--dot", str(dot), "--json", str(js)])
    assert code == 0
    data = json.loads(js.read_text())
    assert data["n"] == 7 and data["k"] == 2 and len(data["vertices"]) == 21
    assert dot.read_text().startswith("graph F {")


def test_cli_build_over_the_size_cap_is_usage_error(capsys):
    assert main(["build", "path:40", "-k", "20"]) == 2
    err = capsys.readouterr().err
    assert "cap" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "cycle:5", "-k", "2", "--dot"],
        ["verify", "thm3", "--json"],
        ["scan", "conjecture", "--max-order", "5", "--csv"],
    ],
    ids=["build", "verify", "scan"],
)
def test_cli_unwritable_output_path_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out"
    assert main(argv + [str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_cli_verify_row_over_the_size_cap_names_its_row(tmp_path, capsys, monkeypatch):
    # C5, k=2 has 10 token vertices and 15 edges, the first thm3 row over 20
    monkeypatch.setattr(tokens, "MAX_TOKEN_GRAPH_SIZE", 20)
    out = tmp_path / "r.json"
    assert main(["verify", "thm3", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: thm3: C5, k=2: 25 token vertices and edges, over the cap of 20\n"
    )
    assert not out.exists()


def test_cli_unwritable_report_path_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    # verify eq2 --max-n 11 solves 36 rows, about 9 s, when nothing stops it
    def refuse(*args, **kwargs):
        raise AssertionError("solved before the output path was checked")

    monkeypatch.setattr(cli, "run_check", refuse)
    out = tmp_path / "missing" / "r.json"
    assert main(["verify", "eq2", "--max-n", "11", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"


def test_cli_build_with_one_unwritable_path_writes_nothing(tmp_path, capsys):
    dot = tmp_path / "ok.dot"
    bad = tmp_path / "missing" / "x.json"
    assert main(["build", "cycle:5", "-k", "2", "--dot", str(dot), "--json", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {bad}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_output_path_that_is_a_directory_is_usage_error(tmp_path, capsys):
    assert main(["verify", "fig1", "--csv", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"


def test_cli_verify_pass_and_report_files(tmp_path, capsys):
    js = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = main(["verify", "fig1", "--json", str(js), "--csv", str(csv_path)])
    assert code == 0
    rows = json.loads(js.read_text())
    assert rows[0]["status"] == "pass"
    assert csv_path.read_text().splitlines()[0].startswith("check,")
    assert "pass" in capsys.readouterr().out


def test_cli_verify_respects_max_n(capsys):
    assert main(["verify", "thm2", "--max-n", "6"]) == 0
    out = capsys.readouterr().out
    assert "K_{2,4}" in out and "K_{2,8}" not in out


def test_cli_scan_fig3(tmp_path, capsys):
    js = tmp_path / "scan.json"
    code = main(["scan", "fig3", "--covered-only", "--json", str(js)])
    assert code == 0
    rows = json.loads(js.read_text())
    assert rows and all(r["solver_value"] == 12 for r in rows)
    assert all(r["status"] == "bound-holds" for r in rows)


def test_cli_scan_conjecture(capsys):
    assert main(["scan", "conjecture", "--max-order", "6", "--max-k", "3"]) == 0
    assert "pass" in capsys.readouterr().out


def test_cli_scan_conjecture_without_rows_is_usage_error(tmp_path, capsys):
    js = tmp_path / "scan.json"
    assert main(["scan", "conjecture", "--max-order", "2", "--max-k", "1", "--json", str(js)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not js.exists()
    assert captured.err.count("\n") == 1 and "conjecture" in captured.err


def test_cli_scan_guard_exit_code(capsys):
    assert main(["scan", "conjecture", "--max-order", "11", "--max-k", "4"]) == 2


def test_cli_scan_rejects_the_other_targets_flags(capsys):
    for argv in (
        ["scan", "fig3", "--max-order", "3", "--max-k", "1"],
        ["scan", "conjecture", "--covered-only"],
    ):
        code, err = _usage_exit(argv, capsys)
        assert code == 2 and "unrecognized arguments" in err


def test_cli_scan_budget_exceeded_rows_are_reported(tmp_path, capsys):
    js = tmp_path / "scan.json"
    argv = ["--budget", "0", "scan", "conjecture", "--max-order", "6", "--max-k", "3"]
    assert main([*argv, "--json", str(js)]) == 3
    rows = json.loads(js.read_text())
    assert len(rows) == 12
    statuses = {r["status"] for r in rows}
    assert "budget-exceeded" in statuses and statuses <= {"budget-exceeded", "pass"}


def test_cli_scan_fig3_budget_exceeded_rows_are_reported(tmp_path, capsys):
    js = tmp_path / "scan.json"
    assert main(["--budget", "0", "scan", "fig3", "--covered-only", "--json", str(js)]) == 3
    rows = json.loads(js.read_text())
    # every parts-2/5 graph without isolated vertices is solved to a tick,
    # so each is a row named by its edges, and the scan reaches the last
    assert len(rows) == 241
    assert all(r["status"] == "budget-exceeded" and r["instance"].startswith("edges [") for r in rows)
    assert rows[-1]["instance"] == "edges " + str([(a, b) for a in (1, 2) for b in range(3, 8)])


@pytest.mark.parametrize(
    "argv, json_digest, csv_digest",
    [
        (
            ["conjecture", "--max-order", "10", "--max-k", "4"],
            ("9470f4a63cc2a6b8d6bd513025869028de2fdb2825a72b93afd73c64fb0759a8", 10010),
            ("9794af1543a8cb6de7a505bdacd60284dd776b671c2e3195050dfcf86ff29227", 2370),
        ),
        (
            ["fig3", "--covered-only"],
            ("f024cfa2a73be4e8c3690b4fd3c4a7c6fe1b6b9ff03f6e58446ab78275d9f916", 8043),
            ("bd2ac69aef0ce485f997d1366a94535ddd8b1680cd2d9027a2eba822fdcfabc9", 3209),
        ),
    ],
    ids=["conjecture", "fig3"],
)
def test_scan_reports_match_the_recorded_digests(tmp_path, capsys, argv, json_digest, csv_digest):
    # sha256 and byte length of the scan reports as first released
    js, cs = tmp_path / "scan.json", tmp_path / "scan.csv"
    assert main(["scan", *argv, "--json", str(js), "--csv", str(cs)]) == 0
    for path, expected in ((js, json_digest), (cs, csv_digest)):
        data = path.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == expected


def test_cli_oeis(capsys):
    assert main(["oeis", "A189889", "--count", "5"]) == 0
    out = capsys.readouterr().out
    assert "1, 4, 5, 9, 10" in out and "ok" in out


def test_cli_bad_spec_is_usage_error(capsys):
    assert main(["beta", "wheel:5", "-k", "2"]) == 2


def test_cli_budget_flag_parses(capsys):
    assert main(["--budget", "30", "beta", "cycle:5", "-k", "2"]) == 0


def test_cli_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("TOKENGRAPHS_BUDGET", "30")
    assert main(["beta", "cycle:7", "-k", "2"]) == 0


def test_cli_verify_nu_rows_honour_the_budget(tmp_path, capsys):
    # the same instance as `nu path:5 -k 3`, which exits 3 under this budget
    js = tmp_path / "fig2.json"
    assert main(["--budget", "0", "verify", "fig2", "--json", str(js)]) == 3
    rows = json.loads(js.read_text())
    assert [(r["instance"], r["status"]) for r in rows] == [("P5, k=3", "budget-exceeded")]


@pytest.mark.parametrize("flag, env", [(["--budget", "0"], None), ([], "0")])
def test_cli_nu_honours_the_budget(monkeypatch, capsys, flag, env):
    if env is not None:
        monkeypatch.setenv("TOKENGRAPHS_BUDGET", env)
    assert main([*flag, "nu", "path:16", "-k", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("budget exceeded:")
    assert "Traceback" not in captured.err
    assert captured.err.endswith("on time budget after 1 nodes\n")


def test_cli_beta_budget_error_names_its_node_count(capsys):
    assert main(["--budget", "0", "beta", "cycle:9", "-k", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget exceeded: F_3(cycle:9): search aborted on time budget after 1 nodes\n"
    )


@pytest.mark.parametrize("command", ["beta", "nu"])
def test_cli_budget_error_names_its_instance(capsys, command):
    assert main(["--budget", "0", command, "cycle:7", "-k", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: F_3(cycle:7): search aborted")


def test_cli_verify_without_rows_is_usage_error(capsys):
    # fig1's one instance, F_3(K_{1,5}), has a base of order 6
    for check_id, max_n in (("thm3", "2"), ("thm2", "0"), ("fig1", "4")):
        assert main(["verify", check_id, "--max-n", max_n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and check_id in captured.err


def _usage_exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return exc.value.code, err


def test_cli_budget_env_not_a_number(monkeypatch, capsys):
    monkeypatch.setenv("TOKENGRAPHS_BUDGET", "abc")
    code, err = _usage_exit(["beta", "cycle:5", "-k", "2"], capsys)
    assert code == 2 and "TOKENGRAPHS_BUDGET" in err


def test_cli_budget_nan(capsys):
    code, err = _usage_exit(["--budget", "nan", "beta", "cycle:5", "-k", "2"], capsys)
    assert code == 2 and "--budget" in err


def test_cli_budget_negative(capsys):
    code, err = _usage_exit(["--budget", "-1", "beta", "cycle:5", "-k", "2"], capsys)
    assert code == 2 and "--budget" in err


def test_reports_byte_identical_across_processes(tmp_path):
    # different hash seeds must not leak set-iteration order into reports
    import os
    import subprocess
    import sys

    outputs = []
    for seed in ("1", "271828"):
        path = tmp_path / f"report-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        subprocess.run(
            [sys.executable, "-m", "tokengraphs.cli", "verify", "thm3",
             "--max-n", "7", "--json", str(path)],
            check=True,
            env=env,
            capture_output=True,
        )
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_closed_stdout_prints_nothing_and_exits_141():
    # no reader is left once the parent closes its end, so the first write
    # fails whatever the buffering: unbuffered it fails in a print, block
    # buffered in main's flush
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tokengraphs

    src = str(Path(tokengraphs.__file__).resolve().parent.parent)
    for unbuffered in ("1", ""):
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        if not unbuffered:
            del env["PYTHONUNBUFFERED"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "tokengraphs.cli", "beta", "cycle:7", "-k", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (cli.EXIT_CLOSED_PIPE, b"")


def test_cli_closed_stdout_without_a_descriptor(capsys):
    # a StringIO stdout has no file descriptor to point at devnull
    import contextlib
    import io

    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    with contextlib.redirect_stdout(Closed()):
        assert main(["beta", "cycle:7", "-k", "3"]) == cli.EXIT_CLOSED_PIPE
    assert capsys.readouterr().err == ""
