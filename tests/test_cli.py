import argparse
import hashlib
import json

import pytest

import tokengraphs.verify as verify
from tokengraphs import cli, tokens
from tokengraphs.cli import main, parse_graph_spec
from tokengraphs.graphs import GraphError, complete_bipartite_graph, cycle_graph
from tokengraphs.verify import SCANS


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


def test_cli_file_spec_errors_name_the_spec(tmp_path, capsys):
    # an empty path would read the working directory, and an empty file's
    # parse error named no file: both now name the spec, as a family's does
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    for argv in (["nu", "file:", "-k", "1"], ["beta", f"file:{empty}", "-k", "1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"graph spec {argv[1]!r}" in err, argv
        assert "directory" not in err and "Traceback" not in err


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


def test_cli_failed_certificate_is_a_failing_row(tmp_path):
    # a bound one too large makes theorem 1's construction raise in every
    # lemma3 row; the run still writes its report and prints no traceback
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tokengraphs

    src = str(Path(tokengraphs.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = tmp_path / "r.json"
    script = (
        "import sys\n"
        "import tokengraphs.constructions as c\n"
        "real = c.nu_token_formula\n"
        "c.nu_token_formula = lambda n, k: real(n, k) + 1\n"
        "from tokengraphs.cli import main\n"
        f"sys.exit(main(['verify', 'lemma3', '--json', {str(out)!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
    rows = json.loads(out.read_text())
    assert [(r["status"], r["witness"]) for r in rows] == [
        ("fail", "theorem 1 matching is not of the bound's size")
    ] * 8


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
    # the message names each of the scan's options with its parsed value
    assert main(["scan", "conjecture", "--max-order", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scan conjecture has no instance with --max-order -1 --max-k 4\n"


def _subcommands(parser):
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_cli_scan_subcommands_are_the_scan_table():
    scans = _subcommands(_subcommands(cli.build_parser())["scan"])
    assert list(scans) == list(SCANS)
    assert all(p.get_default("func") is cli._cmd_scan for p in scans.values())


def test_cli_scan_failing_rows_print_no_extra_line(monkeypatch, capsys):
    # every row fails against a bound of 0: each says fail, the summary
    # counts them, and the exit code is 1
    monkeypatch.setattr(verify, "class_bound", lambda m, n, k: 0)
    assert main(["scan", "conjecture", "--max-order", "4", "--max-k", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and all(line.lstrip().startswith("fail") for line in lines[:-1])
    assert lines[-1] == "-- 0/2 rows pass or hold their bound"


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


def test_cli_spec_of_the_wrong_arity_names_the_spec(capsys):
    # the message names the kind as typed, never the family it stands for
    for spec, kind, count in (("kbip:2", "kbip", 1), ("kbip:1,2,3", "kbip", 3), ("match:3", "match", 1)):
        assert main(["build", spec, "-k", "1"]) == 2
        err = capsys.readouterr().err
        assert f"graph spec '{spec}': {kind} takes 2 parameter(s), got {count}" in err
        assert "complete_bipartite" not in err and "matching_graph" not in err


def test_cli_star_without_leaves_names_the_star(capsys):
    assert main(["build", "star:0", "-k", "1"]) == 2
    err = capsys.readouterr().err
    assert "'star:0': star needs at least 1 leaf" in err and "bipartite" not in err


def test_cli_base_of_order_one_has_no_token_graph(capsys):
    assert main(["build", "path:1", "-k", "1"]) == 2
    err = capsys.readouterr().err
    assert "a base of order 1 has no token graph" in err and "<= 0" not in err


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
