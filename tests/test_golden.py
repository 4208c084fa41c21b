"""Golden CLI output: exact stdout, stderr and exit code per subcommand.

Primary output is byte-deterministic for fixed flags, seed and input (see
the README), and these cases pin it: an internal change that alters any of
them changes what users see. Outputs over 4 KiB, and the sampled starts
of order 16 and 18, are pinned by SHA-256 digest and line count.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import pytest

from factorcrit.cli import main


class Digest(NamedTuple):
    sha256: str
    lines: int


class Case(NamedTuple):
    name: str
    argv: list[str]
    code: int
    stdout: str | Digest
    stderr: str


CASES = [
    Case(
        'analyze_dense_human',
        ['analyze', '--graph', 'K^R}vzn~`|R^', '--k', '2'],
        0,
        'graph: K^R}vzn~`|R^  (n=12, k=2)\nk-factor-critical: True\nminimal: False\ndeletable edges: [[0, 2], [0, 3], [0, 5], [0, 6], [0, 7], [0, 8], [0, 9], [0, 11], [1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [1, 7], [1, 8], [1, 9], [2, 3], [2, 5], [2, 7], [2, 8], [2, 9], [2, 10], [3, 5], [3, 6], [3, 7], [3, 9], [3, 10], [3, 11], [4, 5], [4, 6], [4, 7], [4, 8], [4, 9], [4, 10], [4, 11], [5, 7], [5, 8], [5, 9], [5, 10], [6, 8], [6, 9], [6, 10], [6, 11], [7, 8], [7, 11], [8, 10], [8, 11], [9, 11], [10, 11]]\ngallai-edmonds: D=[] A=[] C=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]\ndeficiency: 0\nmin degree: 7\nconnectivity consequences: True\nverdict: pass\n',
        '',
    ),
    Case(
        'analyze_dense_json',
        ['analyze', '--graph', 'K^R}vzn~`|R^', '--k', '2', '--format', 'json'],
        0,
        '{"graph6": "K^R}vzn~`|R^", "n": 12, "k": 2, "parity_ok": true, "is_kfc": true, "failing_set": null, "is_minimal": false, "certificates": [], "deletable_edges": [[0, 2], [0, 3], [0, 5], [0, 6], [0, 7], [0, 8], [0, 9], [0, 11], [1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [1, 7], [1, 8], [1, 9], [2, 3], [2, 5], [2, 7], [2, 8], [2, 9], [2, 10], [3, 5], [3, 6], [3, 7], [3, 9], [3, 10], [3, 11], [4, 5], [4, 6], [4, 7], [4, 8], [4, 9], [4, 10], [4, 11], [5, 7], [5, 8], [5, 9], [5, 10], [6, 8], [6, 9], [6, 10], [6, 11], [7, 8], [7, 11], [8, 10], [8, 11], [9, 11], [10, 11]], "gallai_edmonds": {"d": [], "a": [], "c": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]}, "deficiency": 0, "min_degree": 7, "connectivity_ok": true, "verdict": "pass"}\n',
        '',
    ),
    Case(
        'analyze_minimal_human',
        ['analyze', '--graph', 'K@QQbOca?dQA', '--k', '2'],
        0,
        'graph: K@QQbOca?dQA  (n=12, k=2)\nk-factor-critical: True\nminimal: True\ncertificate: edge [0, 5] forced by S_e=[3, 4]\ncertificate: edge [0, 9] forced by S_e=[4, 5]\ncertificate: edge [0, 11] forced by S_e=[3, 5]\ncertificate: edge [1, 4] forced by S_e=[0, 3]\ncertificate: edge [1, 6] forced by S_e=[4, 7]\ncertificate: edge [1, 7] forced by S_e=[2, 4]\ncertificate: edge [2, 3] forced by S_e=[7, 8]\ncertificate: edge [2, 7] forced by S_e=[0, 3]\ncertificate: edge [2, 8] forced by S_e=[3, 7]\ncertificate: edge [3, 5] forced by S_e=[0, 8]\ncertificate: edge [3, 6] forced by S_e=[1, 10]\ncertificate: edge [3, 10] forced by S_e=[6, 8]\ncertificate: edge [3, 11] forced by S_e=[4, 5]\ncertificate: edge [4, 7] forced by S_e=[1, 2]\ncertificate: edge [4, 9] forced by S_e=[3, 5]\ncertificate: edge [5, 8] forced by S_e=[0, 3]\ncertificate: edge [6, 10] forced by S_e=[0, 1]\ncertificate: edge [8, 10] forced by S_e=[2, 5]\ncertificate: edge [9, 11] forced by S_e=[0, 3]\ngallai-edmonds: D=[] A=[] C=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]\ndeficiency: 0\nmin degree: 3\nconnectivity consequences: True\nverdict: pass\n',
        '',
    ),
    Case(
        'analyze_minimal_json',
        ['analyze', '--graph', 'K@QQbOca?dQA', '--k', '2', '--format', 'json'],
        0,
        '{"graph6": "K@QQbOca?dQA", "n": 12, "k": 2, "parity_ok": true, "is_kfc": true, "failing_set": null, "is_minimal": true, "certificates": [{"edge": [0, 5], "s_e": [3, 4]}, {"edge": [0, 9], "s_e": [4, 5]}, {"edge": [0, 11], "s_e": [3, 5]}, {"edge": [1, 4], "s_e": [0, 3]}, {"edge": [1, 6], "s_e": [4, 7]}, {"edge": [1, 7], "s_e": [2, 4]}, {"edge": [2, 3], "s_e": [7, 8]}, {"edge": [2, 7], "s_e": [0, 3]}, {"edge": [2, 8], "s_e": [3, 7]}, {"edge": [3, 5], "s_e": [0, 8]}, {"edge": [3, 6], "s_e": [1, 10]}, {"edge": [3, 10], "s_e": [6, 8]}, {"edge": [3, 11], "s_e": [4, 5]}, {"edge": [4, 7], "s_e": [1, 2]}, {"edge": [4, 9], "s_e": [3, 5]}, {"edge": [5, 8], "s_e": [0, 3]}, {"edge": [6, 10], "s_e": [0, 1]}, {"edge": [8, 10], "s_e": [2, 5]}, {"edge": [9, 11], "s_e": [0, 3]}], "deletable_edges": [], "gallai_edmonds": {"d": [], "a": [], "c": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]}, "deficiency": 0, "min_degree": 3, "connectivity_ok": true, "verdict": "pass"}\n',
        '',
    ),
    Case(
        'analyze_odd_parity_human',
        ['analyze', '--graph', 'FhCKG', '--k', '2'],
        0,
        'graph: FhCKG  (n=7, k=2)\nnote: n + k is odd, so the graph cannot be k-factor-critical\nk-factor-critical: False\nminimal: False\ngallai-edmonds: D=[0, 1, 2, 3, 4, 5, 6] A=[] C=[]\ndeficiency: 1\nmin degree: 2\nconnectivity consequences: None\nverdict: pass\n',
        '',
    ),
    Case(
        'analyze_malformed',
        ['analyze', '--graph', '!!', '--k', '2'],
        2,
        '',
        'error: byte outside 63..126 in graph6 line\n',
    ),
    Case(
        'classify_c14_human',
        ['classify', '--graph', 'IE`_KJ?kg', '--edge', '2,4'],
        0,
        'graph: IE`_KJ?kg  missing edge [2, 4]\nlabels: C14\ncanonical: C14 with X=[0, 1, 5, 9], components [[2], [3], [4], [6], [7], [8]]\n',
        '',
    ),
    Case(
        'classify_c14_json',
        ['classify', '--graph', 'IE`_KJ?kg', '--edge', '2,4', '--format', 'json'],
        0,
        '{"graph6": "IE`_KJ?kg", "edge": [2, 4], "labels": ["C14"], "canonical": {"label": "C14", "x": [0, 1, 5, 9], "components": [[2], [3], [4], [6], [7], [8]], "u_component": [2], "v_component": [4]}, "entries": [{"label": "C14", "x": [0, 1, 5, 9], "components": [[2], [3], [4], [6], [7], [8]], "u_component": [2], "v_component": [4]}]}\n',
        '',
    ),
    Case(
        'classify_c14_two_entries_json',
        ['classify', '--graph', 'I@w??{HRo', '--edge', '0,1', '--format', 'json'],
        0,
        '{"graph6": "I@w??{HRo", "edge": [0, 1], "labels": ["C14"], "canonical": {"label": "C14", "x": [2, 4, 7, 9], "components": [[0], [1], [3], [5], [6], [8]], "u_component": [0], "v_component": [1]}, "entries": [{"label": "C14", "x": [2, 4, 7, 9], "components": [[0], [1], [3], [5], [6], [8]], "u_component": [0], "v_component": [1]}, {"label": "C14", "x": [3, 4, 7, 9], "components": [[0], [1], [2], [5], [6], [8]], "u_component": [0], "v_component": [1]}]}\n',
        '',
    ),
    Case(
        'classify_c1_json',
        ['classify', '--graph', 'IwCWw{^Fw', '--edge', '0,3', '--format', 'json'],
        0,
        '{"graph6": "IwCWw{^Fw", "edge": [0, 3], "labels": ["C1"], "canonical": {"label": "C1", "x": [], "components": [[0, 1, 2], [3, 4, 5, 6, 7, 8, 9]], "u_component": [0, 1, 2], "v_component": [3, 4, 5, 6, 7, 8, 9]}, "entries": [{"label": "C1", "x": [], "components": [[0, 1, 2], [3, 4, 5, 6, 7, 8, 9]], "u_component": [0, 1, 2], "v_component": [3, 4, 5, 6, 7, 8, 9]}]}\n',
        '',
    ),
    Case(
        'classify_c6_json',
        ['classify', '--graph', 'IwCW?CB~w', '--edge', '0,3', '--format', 'json'],
        0,
        '{"graph6": "IwCW?CB~w", "edge": [0, 3], "labels": ["C6"], "canonical": {"label": "C6", "x": [9], "components": [[0, 1, 2], [3, 4, 5], [6, 7, 8]], "u_component": [0, 1, 2], "v_component": [3, 4, 5]}, "entries": [{"label": "C6", "x": [9], "components": [[0, 1, 2], [3, 4, 5], [6, 7, 8]], "u_component": [0, 1, 2], "v_component": [3, 4, 5]}]}\n',
        '',
    ),
    Case(
        'classify_c9_human',
        ['classify', '--graph', 'IwCW?B~~w', '--edge', '0,3'],
        0,
        'graph: IwCW?B~~w  missing edge [0, 3]\nlabels: C9\ncanonical: C9 with X=[8, 9], components [[0, 1, 2], [3, 4, 5], [6], [7]]\n',
        '',
    ),
    Case(
        'classify_precondition',
        ['classify', '--graph', 'I^~~~~~~w', '--edge', '0,1'],
        1,
        '',
        'precondition failed (has_perfect_matching): graph already has a perfect matching\n',
    ),
    Case(
        'verify_all_6_2_human',
        ['verify', '--n', '6', '--k', '2', '--source', 'all'],
        0,
        'EQ~o  minimal=True   min_degree=3  verdict=pass\nEQ~w  minimal=False  min_degree=3  verdict=pass\nEUZw  minimal=True   min_degree=3  verdict=pass\nEUxo  minimal=True   min_degree=3  verdict=pass\nEUzo  minimal=False  min_degree=3  verdict=pass\nEUzw  minimal=False  min_degree=3  verdict=pass\nEU~o  minimal=False  min_degree=3  verdict=pass\nEU~w  minimal=False  min_degree=3  verdict=pass\nEVzo  minimal=False  min_degree=3  verdict=pass\nEVzw  minimal=False  min_degree=3  verdict=pass\nEV~w  minimal=False  min_degree=3  verdict=pass\nE]~o  minimal=False  min_degree=4  verdict=pass\nE]~w  minimal=False  min_degree=4  verdict=pass\nE^~w  minimal=False  min_degree=4  verdict=pass\nE~~w  minimal=False  min_degree=5  verdict=pass\nscanned=156 kfc=15 minimal=3 failures=0\n',
        '',
    ),
    Case(
        'verify_all_6_2_json',
        ['verify', '--n', '6', '--k', '2', '--source', 'all', '--format', 'json'],
        0,
        '{"graph6": "EQ~o", "n": 6, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "EQ~w", "n": 6, "k": 2, "is_kfc": true, "is_minimal": false, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "EUZw", "n": 6, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "EUxo", "n": 6, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "EUzo", "n": 6, "k": 2, "is_kfc": true, "is_minimal": false, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "EUzw", "n": 6, "k": 2, "is_kfc": true, "is_minimal": false, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "EU~o", "n": 6, "k": 2, "is_kfc": true, "is_minimal": false, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "EU~w", "n": 6, "k": 2, "is_kfc": true, "is_minimal": false, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "EVzo", "n": 6, "k": 2, "is_kfc": true, "is_minimal": false, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "EVzw", "n": 6, "k": 2, "is_kfc": true, "is_minimal": false, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "EV~w", "n": 6, "k": 2, "is_kfc": true, "is_minimal": false, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "E]~o", "n": 6, "k": 2, "is_kfc": true, "is_minimal": false, "min_degree": 4, "verdict": "pass", "witness": null}\n{"graph6": "E]~w", "n": 6, "k": 2, "is_kfc": true, "is_minimal": false, "min_degree": 4, "verdict": "pass", "witness": null}\n{"graph6": "E^~w", "n": 6, "k": 2, "is_kfc": true, "is_minimal": false, "min_degree": 4, "verdict": "pass", "witness": null}\n{"graph6": "E~~w", "n": 6, "k": 2, "is_kfc": true, "is_minimal": false, "min_degree": 5, "verdict": "pass", "witness": null}\n',
        'scanned=156 kfc=15 minimal=3 failures=0\n',
    ),
    Case(
        'verify_all_6_2_tsv',
        ['verify', '--n', '6', '--k', '2', '--source', 'all', '--format', 'tsv'],
        0,
        'graph6\tn\tk\tis_kfc\tis_minimal\tmin_degree\tverdict\twitness\nEQ~o\t6\t2\tTrue\tTrue\t3\tpass\t\nEQ~w\t6\t2\tTrue\tFalse\t3\tpass\t\nEUZw\t6\t2\tTrue\tTrue\t3\tpass\t\nEUxo\t6\t2\tTrue\tTrue\t3\tpass\t\nEUzo\t6\t2\tTrue\tFalse\t3\tpass\t\nEUzw\t6\t2\tTrue\tFalse\t3\tpass\t\nEU~o\t6\t2\tTrue\tFalse\t3\tpass\t\nEU~w\t6\t2\tTrue\tFalse\t3\tpass\t\nEVzo\t6\t2\tTrue\tFalse\t3\tpass\t\nEVzw\t6\t2\tTrue\tFalse\t3\tpass\t\nEV~w\t6\t2\tTrue\tFalse\t3\tpass\t\nE]~o\t6\t2\tTrue\tFalse\t4\tpass\t\nE]~w\t6\t2\tTrue\tFalse\t4\tpass\t\nE^~w\t6\t2\tTrue\tFalse\t4\tpass\t\nE~~w\t6\t2\tTrue\tFalse\t5\tpass\t\n',
        'scanned=156 kfc=15 minimal=3 failures=0\n',
    ),
    Case(
        'verify_all_8_2_json',
        ['verify', '--n', '8', '--k', '2', '--source', 'all', '--format', 'json'],
        0,
        Digest('70f1b9d102c3e834307e16b5490d9eeeaabc2ccdc3361b63ca90584248e8635f', 2190),
        'scanned=12346 kfc=2190 minimal=21 failures=0\n',
    ),
    Case(
        'verify_all_8_2_tsv',
        ['verify', '--n', '8', '--k', '2', '--source', 'all', '--format', 'tsv'],
        0,
        Digest('ab8bce2a756ef0b9fbc2e8e01bb684465ee5d4d05468a8450e32b2b27390773f', 2191),
        'scanned=12346 kfc=2190 minimal=21 failures=0\n',
    ),
    Case(
        'verify_sample_12_2_json',
        ['verify', '--n', '12', '--k', '2', '--source', 'sample', '--samples', '20', '--seed', '0', '--format', 'json'],
        0,
        '{"graph6": "K@QQbOca?dQA", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "KgQ?`mIAP_?b", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "KAw?K`BXD_?p", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "KaIGi?hg?a_w", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "K?IUOpCAN_dG", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "KWOSGo@VD@?[", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "KoEqPCGEIH@g", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "K`AiO_PoOXCo", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "KiGIa@EaPIQA", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "KPsOAKJQ`IT?", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "Ko?I@K[ECCm?", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "KKG\\\\IO@GI@q@", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "KGOlGgX`C?i@", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "KhCS_QB`@Qw_", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "KOSc_Y`@A_gQ", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "KSh@gL@AG_gH", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "KJC?TAB`?Kh_", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "K@YBK__`W`hA", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "K@_IbGegAOu?", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n{"graph6": "K?i@kHOAR@IA", "n": 12, "k": 2, "is_kfc": true, "is_minimal": true, "min_degree": 3, "verdict": "pass", "witness": null}\n',
        'scanned=20 kfc=20 minimal=20 failures=0\n',
    ),
    Case(
        'verify_sample_14_4_json',
        ['verify', '--n', '14', '--k', '4', '--source', 'sample', '--samples', '5', '--seed', '0', '--format', 'json'],
        0,
        '{"graph6": "MUXcIyWK`aPAOn@j?", "n": 14, "k": 4, "is_kfc": true, "is_minimal": true, "min_degree": 5, "verdict": "pass", "witness": null}\n{"graph6": "MHhSQKFkIouOPiiP?", "n": 14, "k": 4, "is_kfc": true, "is_minimal": true, "min_degree": 5, "verdict": "pass", "witness": null}\n{"graph6": "MD\\\\`?CDTkb|OpwiO_", "n": 14, "k": 4, "is_kfc": true, "is_minimal": true, "min_degree": 5, "verdict": "pass", "witness": null}\n{"graph6": "MGuaa@]kOV_mlOgd?", "n": 14, "k": 4, "is_kfc": true, "is_minimal": true, "min_degree": 5, "verdict": "pass", "witness": null}\n{"graph6": "MGyF@aSbo[EDSpTY?", "n": 14, "k": 4, "is_kfc": true, "is_minimal": true, "min_degree": 5, "verdict": "pass", "witness": null}\n',
        'scanned=5 kfc=5 minimal=5 failures=0\n',
    ),
    # sampled starts in which the listed graph's sweep decides most of
    # minimalize's outputs
    Case(
        'verify_sample_16_6_json',
        ['verify', '--n', '16', '--k', '6', '--source', 'sample', '--samples', '3', '--seed', '0', '--format', 'json'],
        0,
        Digest('7676d609872d2f1a3fc8c6342088e67e521071794b5281e88ce9c49b18f94bf6', 3),
        'scanned=3 kfc=3 minimal=3 failures=0\n',
    ),
    Case(
        'verify_sample_16_2_json',
        ['verify', '--n', '16', '--k', '2', '--source', 'sample', '--samples', '20', '--seed', '0', '--format', 'json'],
        0,
        Digest('089b7a0c652255d99b91cc5a5bd048b1aca780cc3f2041ac870295d87146afda', 20),
        'scanned=20 kfc=20 minimal=20 failures=0\n',
    ),
    Case(
        'verify_sample_18_8_json',
        ['verify', '--n', '18', '--k', '8', '--source', 'sample', '--samples', '2', '--seed', '0', '--format', 'json'],
        0,
        Digest('a229d2b599c9da23dca9d4aafb4cee0cf2dae53aa1ecd32c3aae0a7b8c8cd7cd', 2),
        'scanned=2 kfc=2 minimal=2 failures=0\n',
    ),
    Case(
        'minimalize_dense_seed0',
        ['minimalize', '--graph', 'K^R}vzn~`|R^', '--k', '2'],
        0,
        'K@QQbOca?dQA\n',
        '',
    ),
    Case(
        'minimalize_dense_seed7',
        ['minimalize', '--graph', 'K^R}vzn~`|R^', '--k', '2', '--seed', '7'],
        0,
        'KQ@QOqBK`GP@\n',
        '',
    ),
    Case(
        'certify_minimal_human',
        ['certify', '--graph', 'K@QQbOca?dQA', '--k', '2'],
        0,
        'edge (0,5): S_e = [3, 4]\nedge (0,9): S_e = [4, 5]\nedge (0,11): S_e = [3, 5]\nedge (1,4): S_e = [0, 3]\nedge (1,6): S_e = [4, 7]\nedge (1,7): S_e = [2, 4]\nedge (2,3): S_e = [7, 8]\nedge (2,7): S_e = [0, 3]\nedge (2,8): S_e = [3, 7]\nedge (3,5): S_e = [0, 8]\nedge (3,6): S_e = [1, 10]\nedge (3,10): S_e = [6, 8]\nedge (3,11): S_e = [4, 5]\nedge (4,7): S_e = [1, 2]\nedge (4,9): S_e = [3, 5]\nedge (5,8): S_e = [0, 3]\nedge (6,10): S_e = [0, 1]\nedge (8,10): S_e = [2, 5]\nedge (9,11): S_e = [0, 3]\n',
        '',
    ),
    Case(
        'certify_minimal_json',
        ['certify', '--graph', 'K@QQbOca?dQA', '--k', '2', '--format', 'json'],
        0,
        '{"edge": [0, 5], "s_e": [3, 4]}\n{"edge": [0, 9], "s_e": [4, 5]}\n{"edge": [0, 11], "s_e": [3, 5]}\n{"edge": [1, 4], "s_e": [0, 3]}\n{"edge": [1, 6], "s_e": [4, 7]}\n{"edge": [1, 7], "s_e": [2, 4]}\n{"edge": [2, 3], "s_e": [7, 8]}\n{"edge": [2, 7], "s_e": [0, 3]}\n{"edge": [2, 8], "s_e": [3, 7]}\n{"edge": [3, 5], "s_e": [0, 8]}\n{"edge": [3, 6], "s_e": [1, 10]}\n{"edge": [3, 10], "s_e": [6, 8]}\n{"edge": [3, 11], "s_e": [4, 5]}\n{"edge": [4, 7], "s_e": [1, 2]}\n{"edge": [4, 9], "s_e": [3, 5]}\n{"edge": [5, 8], "s_e": [0, 3]}\n{"edge": [6, 10], "s_e": [0, 1]}\n{"edge": [8, 10], "s_e": [2, 5]}\n{"edge": [9, 11], "s_e": [0, 3]}\n',
        '',
    ),
    Case(
        'certify_not_minimal',
        ['certify', '--graph', 'K^R}vzn~`|R^', '--k', '2'],
        1,
        '',
        'not minimal; certificate-free edges: (0,2) (0,3) (0,5) (0,6) (0,7) (0,8) (0,9) (0,11) (1,2) (1,3) (1,4) (1,5) (1,6) (1,7) (1,8) (1,9) (2,3) (2,5) (2,7) (2,8) (2,9) (2,10) (3,5) (3,6) (3,7) (3,9) (3,10) (3,11) (4,5) (4,6) (4,7) (4,8) (4,9) (4,10) (4,11) (5,7) (5,8) (5,9) (5,10) (6,8) (6,9) (6,10) (6,11) (7,8) (7,11) (8,10) (8,11) (9,11) (10,11)\n',
    ),
]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_golden_cli_output(case: Case):
    code, out, err = run_cli(case.argv)
    assert err == case.stderr
    if isinstance(case.stdout, Digest):
        assert out.count("\n") == case.stdout.lines
        assert hashlib.sha256(out.encode()).hexdigest() == case.stdout.sha256
    else:
        assert out == case.stdout
    assert code == case.code
