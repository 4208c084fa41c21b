from __future__ import annotations

import copy
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcrit import (
    Graph6Error, all_graphs, canonical_form, delete_vertices, graph6_lines, graph_from_edges, kfc_and_minimal,
    min_degree, parse_graph6, read_graph6_stream, to_graph6,
)
from factorcrit import cli, kfc_and_minimal_batch
from factorcrit.cli import main
from factorcrit.criticality import _batch_kernel, _edge_lanes
from factorcrit.enumeration import _representatives
from conftest import disjoint_cliques
from oracles import complete_graph, cycle_graph
from test_golden import CASES, Digest, run_cli

K4 = "C~"
K6 = to_graph6(complete_graph(6))
C5 = to_graph6(cycle_graph(5))
C6 = to_graph6(cycle_graph(6))
K3K7 = to_graph6(disjoint_cliques([3, 7]))
CRITERION_3_SWEEPS = ((4, 2), (5, 1), (6, 2), (6, 4), (7, 1), (7, 3), (8, 2), (8, 4), (8, 6))


def favaron_violations(kernel) -> tuple[int, int]:
    """(batch pairs, graphs) over the cached batches of orders <= 8 and every
    k >= 2: how many (batch, k) pairs were checked, and how many graphs
    ``kernel`` decides k-factor-critical but not (k - 2)-factor-critical."""
    pairs = violations = 0
    for n in range(1, 9):
        for classes, lanes in cli._sweep_batches(n):
            kfc = [kernel(lanes, n, k, len(classes))[0] for k in range(n)]
            pairs += max(0, n - 2)
            violations += sum((kfc[k] & ~kfc[k - 2]).bit_count() for k in range(2, n))
    return pairs, violations


def deletion_violations(kernel) -> tuple[int, int]:
    """(deletions, violations) over the cached batches of orders 2..8: for
    every k >= 1 with n + k even, each distinct G - v of a graph G that
    ``kernel`` decides k-factor-critical, and how many of them are not among
    the (k - 1)-factor-critical classes of order n - 1 that ``kernel`` finds
    (at k - 1 = 0, the perfectly matchable ones)."""
    def kfc_classes(n: int, k: int) -> list:
        out = []
        for classes, lanes in cli._sweep_batches(n):
            kfc = kernel(lanes, n, k, len(classes))[0]
            out += [g for i, g in enumerate(classes) if kfc >> i & 1]
        return out

    deletions = violations = 0
    for n in range(2, 9):
        for k in range(2 - n % 2, n, 2):
            below = {canonical_form(h) for h in kfc_classes(n - 1, k - 1)}
            seen = {delete_vertices(g, 1 << v) for g in kfc_classes(n, k) for v in range(n)}
            deletions += len(seen)
            violations += sum(canonical_form(h) not in below for h in seen)
    return deletions, violations


def stray_kernel(lanes, n, k, count):
    """``_batch_kernel``, except that it also calls the first order-8 class,
    the empty graph, 4-factor-critical."""
    kfc, minimal = _batch_kernel(lanes, n, k, count)
    return (kfc | 1, minimal) if (n, k) == (8, 4) and lanes is cli._sweep_batches(8)[0][1] else (kfc, minimal)


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
        assert err == "error: k 7 outside 0..3\n"

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

    def test_failed_connectivity_consequences_exit_3(self, capsys, monkeypatch):
        # the consequences are theorems about k-FC graphs: failing one means the decider is wrong
        monkeypatch.setattr(cli, "check_connectivity_properties", lambda g, k: False)
        code, out, err = run(capsys, "analyze", "--graph", K4, "--k", "2")
        assert (code, out) == (3, "")
        assert err == "internal error: C~ was decided 2-factor-critical but fails its connectivity consequences\n"

    def test_minimal_kfc_off_the_degree_bound_fails(self, capsys, monkeypatch):
        # a report calling K6 minimal 2-FC: minimum degree 5, not 3, is a counterexample
        real = cli.is_minimal_kfc
        monkeypatch.setattr(
            cli, "is_minimal_kfc", lambda g, k: dataclasses.replace(real(g, k), is_minimal=True, deletable_edges=())
        )
        code, out, _ = run(capsys, "analyze", "--graph", K6, "--k", "2", "--format", "json")
        rec = json.loads(out)
        assert code == 1
        assert (rec["is_minimal"], rec["min_degree"], rec["connectivity_ok"], rec["verdict"]) == (True, 5, True, "fail")


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

    def test_missing_table_row_exit_3(self, capsys, monkeypatch):
        from factorcrit import configurations

        monkeypatch.setattr(configurations, "_BY_SIGNATURE", {})
        code, out, err = run(capsys, "classify", "--graph", K3K7, "--edge", "0,3")
        assert code == 3 and out == ""
        assert err == "internal error: witness (0, (3, 7), endpoint sizes (3, 7)) missing from the table\n"

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
    @given(st.integers(1, 64), st.data())
    def test_record_template_matches_json_dumps(self, n, data):
        # a batch of records is written from templates and escaped once;
        # json.dumps of each record is the reference
        k = data.draw(st.integers(0, n - 1))
        g6 = st.text(st.just("\\") | st.characters(min_codepoint=63, max_codepoint=126), min_size=1)
        degree = st.integers(0, n - 1) | st.just(min(k + 1, n - 1))
        batch = data.draw(st.lists(st.tuples(g6, st.booleans(), degree), min_size=1, max_size=3))
        records, failing = [], []
        for text, minimal, dmin in batch:
            failed = minimal and dmin != k + 1
            witness = {"min_degree": dmin, "expected": k + 1} if failed else None
            records.append({
                "graph6": text, "n": n, "k": k, "is_kfc": True, "is_minimal": minimal,
                "min_degree": dmin, "verdict": "fail" if failed else "pass", "witness": witness,
            })
            failing += [text] if failed else []
        g6s = [text for text, _, _ in batch]
        flags, dmins = bytes(m for _, m, _ in batch), bytes(d for _, _, d in batch)
        lines, counterexamples = cli._format_records(g6s, flags, dmins, n, k, "json")
        assert lines == "".join(json.dumps(record) + "\n" for record in records)
        assert [json.loads(line) for line in lines.splitlines()] == records
        assert counterexamples == failing
        tsv, _ = cli._format_records(g6s, flags, dmins, n, k, "tsv")
        witnesses = [json.dumps(r["witness"]) if r["witness"] else "" for r in records]
        assert [line.split("\t")[-1] for line in tsv.splitlines()] == witnesses

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

    @pytest.mark.parametrize(
        "k, source, error",
        [("6", "all", "k 6 outside 0..3"), ("2", "bogus", "unknown source 'bogus'")],
    )
    def test_bad_k_or_source_exit_2(self, capsys, k, source, error):
        code, out, err = run(capsys, "verify", "--n", "4", "--k", k, "--source", source)
        assert (code, out, err) == (2, "", f"error: {error}\n")

    def test_oversize_exit_2(self, capsys):
        # exhaustive generation refuses n = 10 before the first byte, even the tsv header
        for fmt, jobs in (("human", "1"), ("tsv", "1"), ("tsv", "2")):
            code, out, err = run(
                capsys, "verify", "--n", "10", "--k", "2", "--source", "all",
                "--format", fmt, "--jobs", jobs,
            )
            assert (code, out, err) == (2, "", "error: exhaustive generation order 10 outside 1..9\n")

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_non_positive_samples_exit_2(self, capsys, samples):
        code, out, err = run(
            capsys, "verify", "--n", "12", "--k", "2", "--source", "sample", "--samples", samples
        )
        assert code == 2 and out == ""
        assert err == f"error: samples {samples} outside 1..inf\n"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_exit_2(self, capsys, jobs):
        code, out, err = run(
            capsys, "verify", "--n", "4", "--k", "2", "--source", "all", "--jobs", jobs
        )
        assert code == 2 and out == ""
        assert err == f"error: jobs {jobs} outside 1..inf\n"

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
    def test_file_records_escape_backslashes(self, capsys, tmp_path, jobs):
        # the two 2-factor-critical classes of order 8 whose graph6 holds a
        # backslash, the one byte JSON escapes, and one class without
        lines = ["GCRv\\{", "GErv\\{", "GCOf~w"]
        path = tmp_path / "graphs.g6"
        path.write_text("".join(line + "\n" for line in lines))
        out = {}
        for fmt in ("human", "json", "tsv"):
            code, out[fmt], err = run(
                capsys, "verify", "--n", "8", "--k", "2", "--source", f"file:{path}", "--format", fmt, "--jobs", jobs,
            )
            assert code == 0
        assert [json.loads(record)["graph6"] for record in out["json"].splitlines()] == lines
        # the per-graph formatting the records were written with before batches
        tsv = ["graph6\tn\tk\tis_kfc\tis_minimal\tmin_degree\tverdict\twitness\n"]
        human = []
        for line in lines:
            g = parse_graph6(line)
            is_kfc, minimal = kfc_and_minimal(g, 2)
            dmin = min_degree(g)
            assert is_kfc and not (minimal and dmin != 3)
            tsv.append(f"{line}\t8\t2\tTrue\t{minimal}\t{dmin}\tpass\t\n")
            human.append(f"{line}  minimal={str(minimal):<5}  min_degree={dmin}  verdict=pass\n")
        assert out["tsv"] == "".join(tsv)
        assert out["human"].splitlines(keepends=True)[:-1] == human

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
            graph6_lines(list(all_graphs(6))) + (last + "\n").encode("latin-1")
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
            path.write_bytes(graph6_lines(list(all_graphs(6))[::-1]))
            args = ["--n", "6", "--k", "2", "--source", f"file:{path}"]
        single = run(capsys, "verify", *args, "--format", fmt, "--jobs", "1")
        for jobs in ("2", "3"):
            assert run(capsys, "verify", *args, "--format", fmt, "--jobs", jobs) == single, jobs
        code, out, _ = single
        assert code == 0 and out

    @pytest.mark.parametrize("text", ["", "\n \n\n"], ids=["empty", "blank lines"])
    def test_file_of_no_graphs(self, capsys, tmp_path, text):
        # a scan of nothing starts no pool, so --jobs 2 gives the --jobs 1 result
        path = tmp_path / "none.g6"
        path.write_text(text)
        for fmt in ("human", "json", "tsv"):
            args = ("verify", "--n", "4", "--k", "2", "--source", f"file:{path}", "--format", fmt)
            code, out, err = single = run(capsys, *args, "--jobs", "1")
            assert code == 0 and "scanned=0 kfc=0 minimal=0 failures=0\n" in out + err, fmt
            assert run(capsys, *args, "--jobs", "2") == single, fmt

    def test_exhaustive_sweep_starts_no_worker(self, capsys, monkeypatch):
        # `all` is decided in this process whatever --jobs says: it builds no
        # pool and never asks the CPU count, and gives the --jobs 1 result
        def refuse(*args, **kwargs):
            raise AssertionError("a pool or the CPU count was asked for")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        monkeypatch.setattr(os, "cpu_count", refuse)
        for n, k in (("7", "3"), ("8", "2")):
            for fmt in ("human", "json", "tsv"):
                args = ("verify", "--n", n, "--k", k, "--source", "all", "--format", fmt)
                single = run(capsys, *args, "--jobs", "1")
                assert single[0] == 0 and single[1]
                for jobs in ("2", "3"):
                    assert run(capsys, *args, "--jobs", jobs) == single, (n, k, fmt, jobs)

    def test_workers_at_most_cpu_count(self, capsys, monkeypatch, tmp_path):
        # a per-graph source starts min(jobs, CPUs, inputs) workers and hands
        # each imap chunk inputs // (workers * 8) tasks, at most SWEEP_CHUNK;
        # the pool is a fake that records its size and chunk and runs the
        # tasks in-process
        sizes, chunks = [], []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def imap(self, func, iterable, chunksize=1):
                chunks.append(chunksize)
                return map(func, iterable)

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        path = tmp_path / "graphs.g6"
        path.write_bytes(graph6_lines(list(all_graphs(6))))
        args = ("verify", "--n", "6", "--k", "2", "--source", f"file:{path}", "--format", "json")
        single = run(capsys, *args, "--jobs", "1")
        for jobs in ("3", "100000"):
            assert run(capsys, *args, "--jobs", jobs) == single, jobs
        assert sizes == [3, 4] and chunks == [156 // 24, 156 // 32]
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker, no pool
        assert run(capsys, *args, "--jobs", "100000") == single
        assert sizes == [3, 4]
        # one sampled start needs no pool, and two start two workers
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        sample = ("verify", "--n", "8", "--k", "2", "--source", "sample", "--seed", "5", "--format", "json")
        for samples, want in (("1", [3, 4]), ("2", [3, 4, 2])):
            single = run(capsys, *sample, "--samples", samples, "--jobs", "1")
            assert run(capsys, *sample, "--samples", samples, "--jobs", "3") == single, samples
            assert sizes == want, samples
        assert chunks == [6, 4, 1]
        # a billion starts: imap builds a chunk as one tuple before any worker
        # starts, so an uncapped chunk would hold 62,500,000 tasks; from here
        # the pool records the chunk and never touches the tasks
        def idle(self, func, iterable, chunksize=1):
            chunks.append(chunksize)
            return iter(())

        monkeypatch.setattr(FakePool, "imap", idle)
        code, _, _ = run(capsys, *sample, "--samples", "1000000000", "--jobs", "2")
        assert code == 0 and chunks[-1] == cli.SWEEP_CHUNK

    @pytest.mark.parametrize("source", ["all", "sample"])
    def test_one_job_asks_no_cpu_count(self, capsys, monkeypatch, source):
        # --jobs 1 runs in-process, so the CPU count is never needed
        def refuse():
            raise AssertionError("os.cpu_count called")

        monkeypatch.setattr(os, "cpu_count", refuse)
        code, out, _ = run(capsys, "verify", "--n", "6", "--k", "2", "--source", source, "--samples", "3", "--jobs", "1")
        assert code == 0 and out

    @pytest.mark.parametrize("fmt", ["human", "json", "tsv"])
    def test_counterexample_path(self, capsys, monkeypatch, tmp_path, fmt):
        # report every graph with minimum degree at least 3 as minimal
        # 2-factor-critical: each one whose minimum degree is not 3 is then
        # a counterexample
        graphs = list(all_graphs(6))
        lane = sum(1 << i for i, g in enumerate(graphs) if min_degree(g) >= 3)
        monkeypatch.setattr(cli, "_batch_kernel", lambda lanes, n, k, count: (lane, lane))
        log = tmp_path / "runs.ndjson"
        code, out, err = run(
            capsys, "verify", "--n", "6", "--k", "2", "--source", "all",
            "--format", fmt, "--jobs", "1", "--log", str(log),
        )
        kept = [g for g in graphs if min_degree(g) >= 3]
        failing = [to_graph6(g) for g in kept if min_degree(g) != 3]
        assert len(graphs) == 156 and len(kept) == 19 and len(failing) == 4
        assert code == 1

        summary = "scanned=156 kfc=19 minimal=19 failures=4\n"
        counterexamples = "".join(f"counterexample: {g6}\n" for g6 in failing)
        lines = out.splitlines()
        if fmt == "human":
            assert lines.pop() + "\n" == summary
            assert err == counterexamples
        else:
            assert err == summary + counterexamples
        if fmt == "tsv":
            assert lines.pop(0).split("\t")[-1] == "witness"
        assert len(lines) == 19

        for g, line in zip(kept, lines):
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
            assert lines[15] == (
                '{"graph6": "E]~o", "n": 6, "k": 2, "is_kfc": true, "is_minimal": true, '
                '"min_degree": 4, "verdict": "fail", "witness": {"min_degree": 4, "expected": 3}}'
            )

        entry = json.loads(log.read_text())
        assert entry["counts"] == {"scanned": 156, "kfc": 19, "minimal": 19}
        assert entry["verdict"] == "fail"

    @pytest.mark.parametrize("fmt", ["human", "json", "tsv"])
    def test_kfc_verdict_below_degree_bound_exit_3(self, capsys, monkeypatch, tmp_path, fmt):
        # a kernel that calls every order-6 class minimal 2-factor-critical,
        # E??? (no edges) among them: a k-FC verdict on a graph with minimum
        # degree at most k is an internal error, not a counterexample
        monkeypatch.setattr(cli, "_batch_kernel", lambda lanes, n, k, count: ((1 << count) - 1,) * 2)
        log = tmp_path / "runs.ndjson"
        code, out, err = run(
            capsys, "verify", "--n", "6", "--k", "2", "--source", "all",
            "--format", fmt, "--jobs", "1", "--log", str(log),
        )
        assert code == 3
        assert err == "internal error: E??? was decided 2-factor-critical with minimum degree 0\n"
        assert "counterexample:" not in out + err
        # the batch fails before its records are written, and no run is logged
        assert out == ("graph6\tn\tk\tis_kfc\tis_minimal\tmin_degree\tverdict\twitness\n" if fmt == "tsv" else "")
        assert log.read_text() == ""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_exhaustive_sweeps_match_file_source(self, capsys, tmp_path, reps8, jobs):
        # ``all`` decides each batch of classes bit-sliced, ``file:`` each
        # graph on its own: stdout, stderr and exit code must not differ
        for n, k in CRITERION_3_SWEEPS + ((8, 0),):
            path = tmp_path / f"order{n}.g6"
            if not path.exists():
                path.write_bytes(graph6_lines(reps8[n]))
            args = ("verify", "--n", str(n), "--k", str(k), "--format", "json", "--jobs", jobs)
            exhaustive = run(capsys, *args, "--source", "all")
            assert exhaustive == run(capsys, *args, "--source", f"file:{path}"), (n, k)
            assert exhaustive[0] == 0 and f"scanned={len(reps8[n])} " in exhaustive[2]

    def test_sweeps_never_write_the_cached_lanes(self, capsys):
        for n, k in CRITERION_3_SWEEPS:
            assert run(capsys, "verify", "--n", str(n), "--k", str(k), "--source", "all")[0] == 0
        cached = {n: cli._sweep_batches(n) for n in range(1, 9)}
        # rows that cannot be written: any write inside the kernel raises,
        # and every cached batch gets the verdicts of its lists at every k
        for n, batches in cached.items():
            for classes, lanes in batches:
                frozen = tuple(map(tuple, lanes))
                for k in range(n):
                    want = _batch_kernel(lanes, n, k, len(classes))
                    assert _batch_kernel(frozen, n, k, len(classes)) == want, (n, k)
        assert cli._sweep_batches(8) is cached[8]
        for n, batches in cached.items():
            assert [len(classes) for classes, _ in batches[:-1]] == [cli.SWEEP_CHUNK] * (len(batches) - 1), n
            assert tuple(g for classes, _ in batches for g in classes) == _representatives(n), n
            for classes, lanes in batches:
                assert lanes == _edge_lanes(classes, n), n
                assert all(lanes[u][v] == lanes[v][u] for u in range(n) for v in range(n)), n
                assert not any(lanes[v][v] for v in range(n)), n

    def test_kfc_batches_lie_inside_the_batches_two_below(self):
        # Favaron 1996: a k-factor-critical graph is (k - 2)-factor-critical
        assert favaron_violations(_batch_kernel) == (39, 0)

    def test_a_stray_kfc_bit_breaks_the_inclusion(self):
        # the empty graph of order 8 is not 2-factor-critical
        assert favaron_violations(stray_kernel) == (39, 1)

    def test_kfc_deletions_are_one_below(self):
        # G - v is (k - 1)-factor-critical for every vertex v of a
        # k-factor-critical graph G
        assert deletion_violations(_batch_kernel) == (6890, 0)

    def test_a_stray_kfc_bit_breaks_the_deletions(self):
        # the empty graph of order 7 is not 3-factor-critical
        assert deletion_violations(stray_kernel) == (6891, 1)

    def test_batch_kernel_leaves_its_lanes_unchanged(self):
        graphs = cli._sweep_batches(8)[0][0]
        lanes = _edge_lanes(graphs, 8)
        want = copy.deepcopy(lanes)
        for k in (0, 2, 4, 6):
            assert _batch_kernel(lanes, 8, k, len(graphs)) == kfc_and_minimal_batch(graphs, k)
            assert lanes == want

    def test_cold_and_warm_sweeps_agree(self, capsys):
        cli._sweep_batches.cache_clear()
        passes = [
            [run(capsys, "verify", "--n", str(n), "--k", str(k), "--source", "all", "--format", fmt)
             for n, k in CRITERION_3_SWEEPS for fmt in ("human", "json", "tsv")]
            for _ in range(2)
        ]
        assert passes[0] == passes[1]
        assert all(code == 0 for code, _, _ in passes[0])
        args = ("verify", "--n", "7", "--k", "3", "--source", "all", "--format", "json")
        assert run(capsys, *args, "--jobs", "2") == run(capsys, *args, "--jobs", "1")

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

    @pytest.mark.parametrize("fmt", ["human", "tsv"])
    def test_run_log_in_missing_directory_exit_2(self, capsys, tmp_path, fmt):
        # the log is opened before the first byte: no record, header or summary
        log = tmp_path / "missing" / "runs.ndjson"
        code, out, err = run(
            capsys, "verify", "--n", "3", "--k", "1", "--source", "all", "--format", fmt, "--log", str(log),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1
        assert not log.parent.exists()

    def test_run_log_command_reruns(self, capsys, tmp_path):
        # a file: path with a space is quoted, so the logged command splits back
        path = tmp_path / "two words.g6"
        path.write_text(K6 + "\n")
        log = tmp_path / "runs.ndjson"
        args = ["verify", "--n", "6", "--k", "2", "--source", f"file:{path}", "--log", str(log)]
        assert run(capsys, *args)[0] == 0
        entry = json.loads(log.read_text())
        assert shlex.split(entry["command"]) == ["factorcrit", *args]


@st.composite
def graph6_strings(draw) -> str:
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return to_graph6(graph_from_edges(n, edges))


# a line is a few graph6 strings and blank bytes, so it may be blank, valid or malformed
_LINE = st.lists(st.one_of(graph6_strings(), st.sampled_from(" \t\x0b\x0c\x1c\x1d\x1e\x1f")), max_size=3)
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

    def test_not_kfc_exit_1(self, capsys):
        code, out, err = run(capsys, "certify", "--graph", C6, "--k", "2")
        assert (code, out, err) == (1, "", "input graph is not k-factor-critical\n")


# a call that argparse rejects with exit 2
REJECTED = ["verify", "--n", "6", "--k", "2", "--source", "all", "--format", "xml"]


class TestParserReuse:
    """``main`` builds its parser once per process, and no call leaves
    state behind for the next one."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_golden_cases_in_one_process(self):
        # the file's order, then the even cases followed by the odd ones
        # backwards, so each subcommand follows different ones
        orders = (CASES, CASES[::2] + CASES[1::2][::-1])
        for order in orders:
            for case in order:
                code, out, err = run_cli(case.argv)
                assert err == case.stderr, case.name
                if isinstance(case.stdout, Digest):
                    assert out.count("\n") == case.stdout.lines, case.name
                    assert hashlib.sha256(out.encode()).hexdigest() == case.stdout.sha256, case.name
                else:
                    assert out == case.stdout, case.name
                assert code == case.code, case.name
                with pytest.raises(SystemExit) as exc:
                    run_cli(REJECTED)
                assert exc.value.code == 2

    def test_log_flag_does_not_carry_over(self, capsys, tmp_path):
        log = tmp_path / "runs.ndjson"
        args = ("verify", "--n", "4", "--k", "2", "--source", "all")
        run(capsys, *args, "--log", str(log))
        run(capsys, *args)
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(entries) == 1
        assert entries[0]["command"] == " ".join(["factorcrit", *args, "--log", str(log)])

    def test_patch_after_first_call_takes_effect(self, capsys, monkeypatch):
        args = ("verify", "--n", "4", "--k", "2", "--source", "all")
        assert run(capsys, *args)[0] == 0  # builds the parser, if nothing has yet
        assert cli._build_parser.cache_info().currsize == 1
        seen = []
        monkeypatch.setattr(cli, "verify_scan", lambda ns: seen.append(ns.n) or 7)
        assert run(capsys, *args) == (7, "", "")
        assert seen == [4]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "factorcrit.cli", "analyze", "--graph", K4, "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "minimal: True" in proc.stdout
