from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcrit import (
    Graph6Error, all_graphs, complete_graph, cycle_graph, graph_from_edges, min_degree, parse_graph6,
    read_graph6_stream, to_graph6,
)
from factorcrit import cli
from factorcrit.cli import main
from conftest import disjoint_cliques

K4 = "C~"
K6 = to_graph6(complete_graph(6))
C5 = to_graph6(cycle_graph(5))
C6 = to_graph6(cycle_graph(6))
K3K7 = to_graph6(disjoint_cliques([3, 7]))


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_k4_human(self, capsys):
        code, out, _ = run(capsys, "analyze", "--graph", K4, "--k", "2")
        assert code == 0
        assert "k-factor-critical: True" in out
        assert "minimal: True" in out
        assert "min degree: 3" in out

    def test_k4_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "--graph", K4, "--k", "2", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["is_kfc"] and rec["is_minimal"] and rec["min_degree"] == 3
        assert rec["deficiency"] == 0 and rec["connectivity_ok"] is True
        assert len(rec["certificates"]) == 6

    def test_c5(self, capsys):
        code, out, _ = run(capsys, "analyze", "--graph", C5, "--k", "1", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["is_kfc"] and rec["min_degree"] == 2

    def test_large_kfc_returns(self, capsys):
        # the connectivity check used to walk 2^(n-1) vertex bipartitions
        code, out, _ = run(capsys, "analyze", "--graph", to_graph6(cycle_graph(31)), "--k", "1", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["is_kfc"] and rec["is_minimal"] and rec["connectivity_ok"]

    def test_c6_parity_note(self, capsys):
        code, out, _ = run(capsys, "analyze", "--graph", C6, "--k", "1")
        assert code == 0
        assert "n + k is odd" in out
        assert "k-factor-critical: False" in out

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--graph", "!!!", "--k", "2")
        assert code == 2 and "error" in err

    def test_k_out_of_range_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--graph", K4, "--k", "7")
        assert code == 2
        assert out == ""
        assert err == "error: k=7 outside 0..3\n"

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(K4.encode() + b"\n")))
        code, out, _ = run(capsys, "analyze", "--graph", "-", "--k", "2")
        assert code == 0 and "minimal: True" in out

    def test_stdin_blank_first_line_skipped(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\n" + K4.encode() + b"\n")))
        code, out, _ = run(capsys, "analyze", "--graph", "-", "--k", "2")
        assert code == 0 and "minimal: True" in out

    def test_stdin_non_ascii_exit_2(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xc3\n"), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, "analyze", "--graph", "-", "--k", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: line 1: non-ASCII graph6 input: ")

    def test_empty_stdin_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"")))
        code, out, err = run(capsys, "analyze", "--graph", "-", "--k", "2")
        assert (code, out, err) == (2, "", "error: no graph6 line in -\n")

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(K4 + "\n")
        code, out, _ = run(capsys, "analyze", "--graph", str(path), "--k", "2")
        assert code == 0 and "minimal: True" in out

    def test_file_input_non_ascii_exit_2(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_bytes(b"C\xe9\n" + K4.encode() + b"\n")
        code, out, err = run(capsys, "analyze", "--graph", str(path), "--k", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: line 1: non-ASCII graph6 input: ")


class TestClassify:
    def test_k3_k7(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--graph", K3K7, "--edge", "0,3", "--format", "json"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["labels"] == ["C1"]
        assert rec["canonical"]["x"] == []

    def test_k5_k5(self, capsys):
        g6 = to_graph6(disjoint_cliques([5, 5]))
        code, out, _ = run(capsys, "classify", "--graph", g6, "--edge", "0,5", "--format", "json")
        assert code == 0 and json.loads(out)["labels"] == ["C2"]

    def test_precondition_exit_1(self, capsys):
        g6 = to_graph6(complete_graph(10))
        # K10 minus the designated non-edge still has a perfect matching
        from factorcrit import delete_edge

        g6 = to_graph6(delete_edge(complete_graph(10), (0, 1)))
        code, _, err = run(capsys, "classify", "--graph", g6, "--edge", "0,1")
        assert code == 1 and "has_perfect_matching" in err

    def test_internal_error_exit_3(self, capsys, monkeypatch):
        from factorcrit import configurations

        monkeypatch.setattr(configurations, "find_barrier_witnesses", lambda h, max_x: [])
        code, out, err = run(capsys, "classify", "--graph", K3K7, "--edge", "0,3")
        assert code == 3 and out == ""
        assert err == "internal error: no qualifying barrier witness found despite preconditions\n"

    def test_bad_edge_syntax_exit_2(self, capsys):
        code, _, _ = run(capsys, "classify", "--graph", K3K7, "--edge", "0:3")
        assert code == 2

    def test_wrong_order_exit_2(self, capsys):
        code, _, _ = run(capsys, "classify", "--graph", K4, "--edge", "0,1")
        assert code == 2


class TestVerify:
    def test_all_n4(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--k", "2", "--source", "all")
        assert code == 0
        assert "scanned=11 kfc=1 minimal=1 failures=0" in out
        assert K4 in out

    def test_json_records(self, capsys):
        code, out, err = run(
            capsys, "verify", "--n", "6", "--k", "2", "--source", "all", "--format", "json"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 15  # bicritical graphs of order 6
        minimal = [r for r in records if r["is_minimal"]]
        assert len(minimal) == 3
        assert all(r["verdict"] == "pass" for r in records)
        assert all(r["min_degree"] == 3 for r in minimal)
        assert "failures=0" in err

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(st.just("\\") | st.characters(min_codepoint=63, max_codepoint=126), min_size=1),
        st.booleans(), st.booleans(), st.integers(1, 64), st.integers(0, 63), st.integers(0, 63),
    )
    def test_record_template_matches_json_dumps(self, g6, minimal, failed, n, k, dmin):
        # the records are written from a template; json.dumps of the record is the reference
        witness = {"min_degree": dmin, "expected": k + 1} if failed else None
        record = {
            "graph6": g6, "n": n, "k": k, "is_kfc": True, "is_minimal": minimal,
            "min_degree": dmin, "verdict": "fail" if failed else "pass", "witness": witness,
        }
        line = cli._format_record((g6, minimal, dmin), failed, n, k, "json")
        assert line == json.dumps(record) + "\n"
        assert json.loads(line) == record
        tsv = cli._format_record((g6, minimal, dmin), failed, n, k, "tsv")
        assert tsv.split("\t")[-1] == (json.dumps(witness) if failed else "") + "\n"

    def test_tsv_header(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "4", "--k", "2", "--source", "all", "--format", "tsv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t") == [
            "graph6", "n", "k", "is_kfc", "is_minimal", "min_degree", "verdict", "witness",
        ]
        assert len(lines) == 2

    def test_parity_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "5", "--k", "2", "--source", "all")
        assert code == 2

    def test_oversize_exit_2(self, capsys):
        # exhaustive generation refuses n = 10 before the first byte, even the tsv header
        for fmt, jobs in (("human", "1"), ("tsv", "1"), ("tsv", "2")):
            code, out, err = run(
                capsys, "verify", "--n", "10", "--k", "2", "--source", "all",
                "--format", fmt, "--jobs", jobs,
            )
            assert (code, out, err) == (2, "", "error: exhaustive generation limited to n <= 9\n")

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_non_positive_samples_exit_2(self, capsys, samples):
        code, out, err = run(
            capsys, "verify", "--n", "12", "--k", "2", "--source", "sample", "--samples", samples
        )
        assert code == 2 and out == ""
        assert err == f"error: samples={samples} must be at least 1\n"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_exit_2(self, capsys, jobs):
        code, out, err = run(
            capsys, "verify", "--n", "4", "--k", "2", "--source", "all", "--jobs", jobs
        )
        assert code == 2 and out == ""
        assert err == f"error: jobs={jobs} must be at least 1\n"

    @pytest.mark.parametrize("p", ["1.7", "-0.1"])
    def test_probability_out_of_range_exit_2(self, capsys, p):
        code, out, err = run(
            capsys, "verify", "--n", "4", "--k", "2", "--source", "all", "--p", p
        )
        assert code == 2 and out == ""
        assert err == f"error: edge probability {p} outside [0, 1]\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("fmt", ["human", "json", "tsv"])
    def test_sample_order_out_of_range_exit_2(self, capsys, fmt, jobs):
        # the order is refused before the first byte, even the tsv header
        code, out, err = run(
            capsys, "verify", "--n", "66", "--k", "2", "--source", "sample",
            "--format", fmt, "--jobs", jobs,
        )
        assert (code, out, err) == (2, "", "error: vertex count 66 outside 1..64\n")

    def test_file_source(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text(K6 + "\n" + C6 + "\n")
        code, out, _ = run(
            capsys, "verify", "--n", "6", "--k", "2",
            "--source", f"file:{path}", "--format", "json",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 1 and records[0]["graph6"] == K6

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("last, error", [
        (K4, "input file contains graphs of order 4, expected 6"),
        ("E~~~~", "line 157: oversized graph6 payload: 4 bytes, expected 3"),
        ("E~\xe9w", "line 157: non-ASCII graph6 input: 'ascii' codec can't decode byte 0xe9"
                    " in position 2: ordinal not in range(128)"),
    ], ids=["order-4", "malformed", "non-ascii"])
    def test_file_source_bad_last_line_exit_2(self, capsys, tmp_path, last, error, jobs):
        # every input check precedes the first byte, even the tsv header
        path = tmp_path / "graphs.g6"
        path.write_bytes(
            ("".join(to_graph6(g) + "\n" for g in all_graphs(6)) + last + "\n").encode("latin-1")
        )
        code, out, err = run(
            capsys, "verify", "--n", "6", "--k", "2", "--source", f"file:{path}",
            "--format", "tsv", "--jobs", jobs,
        )
        assert code == 2 and out == ""
        assert err == f"error: {error}\n"

    def test_sample_source(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "8", "--k", "2", "--source", "sample",
            "--samples", "12", "--seed", "5", "--format", "json",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(r["is_minimal"] for r in records)
        assert all(r["min_degree"] == 3 for r in records)

    def test_sample_k_is_n_minus_10_at_14(self, capsys):
        code, out, err = run(
            capsys, "verify", "--n", "14", "--k", "4", "--source", "sample",
            "--samples", "100", "--seed", "0", "--format", "json",
        )
        assert code == 0 and "failures=0" in err
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(r["is_minimal"] for r in records)
        assert all(r["min_degree"] == 5 for r in records)

    @pytest.mark.parametrize("fmt", ["human", "json", "tsv"])
    @pytest.mark.parametrize("source", ["all", "sample", "file"])
    def test_jobs_do_not_change_output(self, capsys, tmp_path, source, fmt):
        if source == "all":
            args = ["--n", "6", "--k", "2", "--source", "all"]
        elif source == "sample":
            args = ["--n", "8", "--k", "2", "--source", "sample", "--samples", "12", "--seed", "5"]
        else:
            path = tmp_path / "graphs.g6"
            path.write_text("".join(to_graph6(g) + "\n" for g in reversed(list(all_graphs(6)))))
            args = ["--n", "6", "--k", "2", "--source", f"file:{path}"]
        single = run(capsys, "verify", *args, "--format", fmt, "--jobs", "1")
        multi = run(capsys, "verify", *args, "--format", fmt, "--jobs", "2")
        assert single == multi
        code, out, _ = single
        assert code == 0 and out

    @pytest.mark.parametrize("fmt", ["human", "json", "tsv"])
    def test_counterexample_path(self, capsys, monkeypatch, tmp_path, fmt):
        # report every graph as minimal 2-factor-critical: each one whose
        # minimum degree is not 3 is then a counterexample
        monkeypatch.setattr(cli, "kfc_and_minimal_batch", lambda gs, k: ((1 << len(gs)) - 1,) * 2)
        log = tmp_path / "runs.ndjson"
        code, out, err = run(
            capsys, "verify", "--n", "6", "--k", "2", "--source", "all",
            "--format", fmt, "--jobs", "1", "--log", str(log),
        )
        graphs = list(all_graphs(6))
        failing = [to_graph6(g) for g in graphs if min_degree(g) != 3]
        assert len(graphs) == 156 and len(failing) == 141
        assert code == 1

        summary = "scanned=156 kfc=156 minimal=156 failures=141\n"
        counterexamples = "".join(f"counterexample: {g6}\n" for g6 in failing)
        lines = out.splitlines()
        if fmt == "human":
            assert lines.pop() + "\n" == summary
            assert err == counterexamples
        else:
            assert err == summary + counterexamples
        if fmt == "tsv":
            assert lines.pop(0).split("\t")[-1] == "witness"
        assert len(lines) == 156

        for g, line in zip(graphs, lines):
            g6, dmin = to_graph6(g), min_degree(g)
            verdict = "pass" if dmin == 3 else "fail"
            witness = None if dmin == 3 else {"min_degree": dmin, "expected": 3}
            if fmt == "json":
                assert json.loads(line) == {
                    "graph6": g6, "n": 6, "k": 2, "is_kfc": True, "is_minimal": True,
                    "min_degree": dmin, "verdict": verdict, "witness": witness,
                }
            elif fmt == "tsv":
                wit = json.dumps(witness) if witness else ""
                assert line == f"{g6}\t6\t2\tTrue\tTrue\t{dmin}\t{verdict}\t{wit}"
            else:
                assert line == f"{g6}  minimal=True   min_degree={dmin}  verdict={verdict}"
        if fmt == "json":
            assert lines[0] == (
                '{"graph6": "E???", "n": 6, "k": 2, "is_kfc": true, "is_minimal": true, '
                '"min_degree": 0, "verdict": "fail", "witness": {"min_degree": 0, "expected": 3}}'
            )

        entry = json.loads(log.read_text())
        assert entry["counts"] == {"scanned": 156, "kfc": 156, "minimal": 156}
        assert entry["verdict"] == "fail"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_exhaustive_sweeps_match_file_source(self, capsys, tmp_path, reps8, jobs):
        # ``all`` decides each batch of classes bit-sliced, ``file:`` each
        # graph on its own: stdout, stderr and exit code must not differ
        for n, k in [(4, 2), (5, 1), (6, 2), (6, 4), (7, 1), (7, 3), (8, 2), (8, 4), (8, 6), (8, 0)]:
            path = tmp_path / f"order{n}.g6"
            if not path.exists():
                path.write_text("".join(to_graph6(g) + "\n" for g in reps8[n]))
            args = ("verify", "--n", str(n), "--k", str(k), "--format", "json", "--jobs", jobs)
            exhaustive = run(capsys, *args, "--source", "all")
            assert exhaustive == run(capsys, *args, "--source", f"file:{path}"), (n, k)
            assert exhaustive[0] == 0 and f"scanned={len(reps8[n])} " in exhaustive[2]

    def test_determinism_across_runs(self, capsys):
        args = ("verify", "--n", "7", "--k", "1", "--source", "sample",
                "--samples", "6", "--seed", "3", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_run_log_appends(self, capsys, tmp_path):
        log = tmp_path / "runs.ndjson"
        args = ("verify", "--n", "4", "--k", "2", "--source", "all", "--log", str(log))
        run(capsys, *args)
        run(capsys, *args)
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(entries) == 2
        assert entries[0]["counts"] == entries[1]["counts"] == {
            "scanned": 11, "kfc": 1, "minimal": 1,
        }
        assert entries[0]["verdict"] == "pass"
        assert entries[0]["input_digest"] == entries[1]["input_digest"]
        # the arguments main parsed, not the host process's sys.argv
        assert entries[0]["command"] == "factorcrit " + " ".join(args)

    def test_run_log_hashes_scanned_bytes(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "graphs.g6"
        data = (K6 + "\r\n\n" + C6 + "\r" + K6 + "\n").encode()
        path.write_bytes(data)
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        log = tmp_path / "runs.ndjson"
        code, out, _ = run(
            capsys, "verify", "--n", "6", "--k", "2", "--source", f"file:{path}",
            "--format", "json", "--log", str(log),
        )
        assert code == 0 and opened.count(str(path)) == 1
        assert [json.loads(line)["graph6"] for line in out.splitlines()] == [K6, K6]
        entry = json.loads(log.read_text())
        assert entry["input_digest"] == hashlib.sha256(data).hexdigest()
        assert entry["counts"] == {"scanned": 3, "kfc": 2, "minimal": 0}


@st.composite
def graph6_lines(draw) -> str:
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return to_graph6(graph_from_edges(n, edges))


# a line is a few graph6 strings and blank bytes, so it may be blank, valid or malformed
_LINE = st.lists(st.one_of(graph6_lines(), st.sampled_from(" \t\x0b\x0c\x1c\x1d\x1e\x1f")), max_size=3)
_FILE = st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\r\n", "\r", ""])), max_size=6)


def _outcome(read) -> tuple:
    try:
        return "graphs", list(read())
    except Graph6Error as exc:
        return "error", str(exc)


class TestReadGraph6File:
    @settings(deadline=None)
    @given(_FILE)
    def test_matches_text_mode_reader(self, tmp_path_factory, lines):
        # the oracle is the earlier reader: a text-mode decode, then str lines
        data = "".join("".join(pieces) + end for pieces, end in lines).encode("ascii")
        path = tmp_path_factory.mktemp("g6") / "graphs.g6"
        path.write_bytes(data)
        got_bytes, stream = cli._read_graph6_file(str(path))
        assert got_bytes == data
        expected = _outcome(lambda: read_graph6_stream(io.TextIOWrapper(io.BytesIO(data), encoding="ascii")))
        assert _outcome(lambda: stream) == expected


class TestMinimalize:
    def test_k4(self, capsys):
        code, out, _ = run(capsys, "minimalize", "--graph", K4, "--k", "2", "--seed", "0")
        assert code == 0 and out.strip() == K4

    def test_k6(self, capsys):
        code, out, _ = run(capsys, "minimalize", "--graph", K6, "--k", "2", "--seed", "0")
        assert code == 0
        from factorcrit import is_minimal_kfc, min_degree

        g = parse_graph6(out.strip())
        assert is_minimal_kfc(g, 2).is_minimal and min_degree(g) == 3

    def test_non_kfc_exit_1(self, capsys):
        code, _, err = run(capsys, "minimalize", "--graph", C6, "--k", "2", "--seed", "0")
        assert code == 1 and "not k-factor-critical" in err


class TestCertify:
    def test_k4(self, capsys):
        code, out, _ = run(capsys, "certify", "--graph", K4, "--k", "2", "--format", "json")
        assert code == 0
        certs = [json.loads(line) for line in out.splitlines()]
        assert len(certs) == 6
        for cert in certs:
            u, v = cert["edge"]
            assert sorted(cert["s_e"] + [u, v]) == [0, 1, 2, 3]

    def test_c5(self, capsys):
        code, out, _ = run(capsys, "certify", "--graph", C5, "--k", "1", "--format", "json")
        assert code == 0 and len(out.splitlines()) == 5

    def test_k6_exit_1(self, capsys):
        code, _, err = run(capsys, "certify", "--graph", K6, "--k", "2")
        assert code == 1 and "certificate-free" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "factorcrit.cli", "analyze", "--graph", K4, "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "minimal: True" in proc.stdout
