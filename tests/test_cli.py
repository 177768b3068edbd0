"""Command-line surface: schemas, determinism, exit codes."""

import hashlib
import json
import random

import pytest

from c2spider import cli, faithful
from c2spider import clasp as cl
from c2spider import engine as eng
from c2spider import web as wb
from c2spider.cache import ClaspCache
from c2spider.ring import RationalFunction as RF
from c2spider.rules import default_table
from c2spider.tqft import Spine


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simples(capsys):
    code, out, _ = run(capsys, "cat", "simples", "--level", "2")
    assert code == 0
    data = json.loads(out)
    assert data["simples"] == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    assert data["q_order"] == 20


def test_determinism(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "cat", "smatrix", "--level", "1")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_fusion_cli(capsys):
    code, out, _ = run(capsys, "cat", "fusion", "--generic",
                       "--lhs", "1,0", "--rhs", "1,0")
    assert code == 0
    data = json.loads(out)
    assert data["decomposition"] == [[[0, 0], 1], [[0, 1], 1], [[2, 0], 1]]
    code, out, _ = run(capsys, "cat", "fusion", "--level", "1",
                       "--lhs", "1,0", "--rhs", "1,0")
    assert json.loads(out)["decomposition"] == [[[0, 0], 1], [[0, 1], 1]]


def test_web_eval_empty_and_loop(capsys, tmp_path):
    empty = {"schema": "c2spider/web/1", "vertices": [], "half_edges": [],
             "pairing": [], "edge_types": {}, "boundary": [], "n_in": 0,
             "free_loops": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(empty))
    code, out, _ = run(capsys, "web", "eval", "--web", str(path))
    assert code == 0
    assert json.loads(out)["scalar"] == {"num": [[0, 1, 1]], "den": [[0, 1, 1]]}
    loop = dict(empty, free_loops=["s"])
    path.write_text(json.dumps(loop))
    code, out, _ = run(capsys, "web", "eval", "--web", str(path))
    data = json.loads(out)
    assert data["scalar"]["num"] == [[-4, -1, 1], [-2, -1, 1], [2, -1, 1], [4, -1, 1]]


def test_web_eval_takes_one_path_with_or_without_boxes(capsys, tmp_path, monkeypatch):
    # a closed web holding a clasp box and one holding a crossing and no box
    # are both valued by eval_closed
    monkeypatch.setenv("C2SPIDER_CACHE", str(tmp_path))
    boxed = wb.trace_closure(wb.clasp_box_web(3))
    kinked = wb.trace_closure(wb.tensor(wb.crossing_web(True), wb.id_web(["s"])))
    cases = [(boxed, cl.clasp_trace((3, 0))), (kinked, eng.eval_closed(kinked))]
    calls = []
    value = eng.eval_closed

    def spy(w, *args, **kwargs):
        calls.append(w.canonical_key())
        return value(w, *args, **kwargs)

    monkeypatch.setattr(eng, "eval_closed", spy)
    for w, want in cases:
        path = tmp_path / "web.json"
        path.write_text(json.dumps(w.to_json()))
        calls.clear()
        code, out, _ = run(capsys, "web", "eval", "--web", str(path))
        assert code == 0
        assert RF.from_json(json.loads(out)["scalar"]) == want
        assert calls[0] == w.canonical_key()


def test_web_eval_of_a_box_under_a_crossing(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("C2SPIDER_CACHE", str(tmp_path))
    w = wb.trace_closure(wb.compose(cl.braid_web([1], 2), wb.clasp_box_web(2)))
    path = tmp_path / "web.json"
    path.write_text(json.dumps(w.to_json()))
    code, out, _ = run(capsys, "web", "eval", "--web", str(path))
    assert code == 0
    assert RF.from_json(json.loads(out)["scalar"]) == \
        cl.braid_eigenvalue([1], 2) * cl.clasp_trace((2, 0))


def test_web_rules_text_and_json(capsys):
    code, out, _ = run(capsys, "--format", "text", "web", "rules")
    assert code == 0 and "closed single loop" in out
    code, out, _ = run(capsys, "web", "rules")
    data = json.loads(out)
    assert data["schema"] == "c2spider/rules/1"
    assert len(data["faces"]) == 9


def test_clasp_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("C2SPIDER_CACHE", str(tmp_path))
    code, out, _ = run(capsys, "clasp", "expand", "--n", "2")
    assert code == 0
    assert len(json.loads(out)["terms"]) == 3
    code, out, _ = run(capsys, "clasp", "trace", "--a", "1")
    scalar = json.loads(out)["scalar"]
    assert scalar["num"] == [[-4, -1, 1], [-2, -1, 1], [2, -1, 1], [4, -1, 1]]
    code, out, _ = run(capsys, "clasp", "theta", "--a", "1", "--b", "1", "--c", "1")
    assert json.loads(out)["scalar"]["num"] == []


def test_tqft_cli(capsys, tmp_path):
    spine_path = tmp_path / "theta.json"
    spine_path.write_text(json.dumps(Spine.theta_graph().to_json()))
    code, out, _ = run(capsys, "tqft", "dim", "--spine", str(spine_path),
                       "--level", "1", "--verlinde")
    data = json.loads(out)
    assert data["dimension"] == 10 and data["verlinde"] == 10
    code, out, _ = run(capsys, "tqft", "torus", "--level", "1")
    data = json.loads(out)
    assert len(data["twist"]) == 3


def test_level_two_matrices_are_pinned(capsys):
    # the S-move and S-matrix outputs, byte for byte
    pins = {("tqft", "torus"): "bec7e6a7b265e0e239888794c70af328ac1e5bcdec841aa608529084d1ebdbde",
            ("cat", "smatrix"): "9636d13f8911ac55d412bb46275e62dd49702fc062d88c9cf8afa50dbdd93cc0"}
    for command, digest in pins.items():
        code, out, _ = run(capsys, *command, "--level", "2")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_tqft_dim_cli_genus_four_at_level_three(capsys, tmp_path):
    spine = faithful.random_spine(4, random.Random(0))
    spine_path = tmp_path / "genus4.json"
    spine_path.write_text(json.dumps(spine.to_json()))
    code, out, _ = run(capsys, "tqft", "dim", "--spine", str(spine_path),
                       "--level", "3", "--verlinde")
    data = json.loads(out)
    assert code == 0 and data["genus"] == 4
    assert data["dimension"] == data["verlinde"] == 1_446_400


def test_faithful_cli(capsys, tmp_path):
    spine_path = tmp_path / "theta.json"
    spine_path.write_text(json.dumps(Spine.theta_graph().to_json()))
    walk_path = tmp_path / "walk.json"
    walk_path.write_text(json.dumps(
        {"schema": "c2spider/walk/1", "steps": [[0, 0], [1, 1]]}))
    code, out, _ = run(capsys, "faithful", "certify", "--spine", str(spine_path),
                       "--walk", str(walk_path), "--level", "1")
    data = json.loads(out)
    assert data["conclusion"] == "detected"
    code, out, _ = run(capsys, "faithful", "torus", "--max-n", "10")
    data = json.loads(out)
    assert len(data["table"]) == 10
    assert all(row["min_level"] >= 1 for row in data["table"])


@pytest.mark.parametrize("payload", [
    {"schema": 1}, {"terms": [{"coeff": 1}]}, [1, 2],
    {"schema": "c2spider/websum/1", "terms": []},
    cl._websum_to_json(eng.WebSum.from_web(eng._strands(2), 2))])
def test_malformed_cache_entry_is_a_miss_and_rewritten(capsys, tmp_path, monkeypatch, payload):
    # the first three payloads are valid JSON but no websum record, and
    # crashed the command; the last two are websum records whose identity
    # web has coefficient 0 or 2, not 1 as in P_2, and were served as P_2
    key = "clasp-merged-single-2"

    def expand(root):
        monkeypatch.setattr(cl, "_MEMO", {})
        code, out, _ = run(capsys, "--cache-dir", str(root), "clasp", "expand", "--n", "2")
        assert code == 0
        with open(ClaspCache(str(root), default_table().table_hash())._path(key), "rb") as fh:
            return out, fh.read()

    fresh = expand(tmp_path / "fresh")
    ClaspCache(str(tmp_path / "bad"), default_table().table_hash()).put(key, payload)
    assert expand(tmp_path / "bad") == fresh


def test_cache_gc_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("C2SPIDER_CACHE", str(tmp_path))
    code, out, _ = run(capsys, "cache", "gc")
    assert code == 0
    data = json.loads(out)
    assert data["removed"] == 0


def test_domain_error_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("C2SPIDER_CACHE", str(tmp_path))
    code, out, err = run(capsys, "clasp", "trace", "--a", "-1")
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"


def test_torus_table_refuses_an_empty_range(capsys):
    # --max-n below 1 printed an empty table and exited 0
    for max_n in ("0", "-2"):
        code, out, err = run(capsys, "faithful", "torus", "--max-n", max_n)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ValueError"


def test_removed_clasp_flags_are_usage_errors():
    for argv in (["clasp", "expand", "--n", "1", "--kind", "double"],
                 ["clasp", "trace", "--a", "0", "--b", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def _web_eval_error(capsys, tmp_path, data):
    path = tmp_path / "web.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "web", "eval", "--web", str(path))
    assert code == 1 and not out
    return json.loads(err)


def test_web_eval_refuses_what_no_code_builds(capsys, tmp_path, monkeypatch):
    # a 'tet' vertex, an old-form box extra [a, b, n] and a box on double
    # strands each exit 1 with a JSON report, not a traceback
    monkeypatch.setenv("C2SPIDER_CACHE", str(tmp_path))
    boxed = wb.trace_closure(wb.clasp_box_web(2)).to_json()
    tet = json.loads(json.dumps(boxed))
    tet["vertices"][0]["kind"] = "tet"
    old_form = json.loads(json.dumps(boxed))
    old_form["vertices"][0]["extra"] = [2, 0, 2]
    double_legs = json.loads(json.dumps(boxed))
    double_legs["edge_types"] = {d: "d" for d in double_legs["edge_types"]}
    for data, kind in ((tet, "vertex-kind"), (old_form, "clasp-pattern"),
                       (double_legs, "clasp-pattern")):
        report = _web_eval_error(capsys, tmp_path, data)
        assert report["error"] == "ValueError"
        assert report["message"].startswith(f"invalid web: {kind}"), report


def test_malformed_web_file_is_a_domain_error(capsys, tmp_path):
    report = _web_eval_error(capsys, tmp_path, {"vertices": []})
    assert report["error"] == "ValueError"
    assert "'half_edges'" in report["message"]


def test_malformed_spine_file_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "spine.json"
    path.write_text(json.dumps({"vertices": 2}))
    code, out, err = run(capsys, "tqft", "dim", "--spine", str(path), "--level", "1")
    assert code == 1 and not out
    report = json.loads(err)
    assert report["error"] == "ValueError" and "'edges'" in report["message"]


def test_vertexless_spine_without_circle_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "spine.json"
    path.write_text(json.dumps({"vertices": 0, "edges": []}))
    code, out, err = run(capsys, "tqft", "dim", "--spine", str(path), "--level", "1")
    assert code == 1 and not out
    report = json.loads(err)
    assert report["error"] == "ValueError"
    assert "without vertices is the circle" in report["message"]


def test_malformed_walk_file_is_a_domain_error(capsys, tmp_path):
    spine_path = tmp_path / "theta.json"
    spine_path.write_text(json.dumps(Spine.theta_graph().to_json()))
    walk_path = tmp_path / "walk.json"
    walk_path.write_text(json.dumps({"steps": 5}))
    code, out, err = run(capsys, "faithful", "certify", "--spine", str(spine_path),
                         "--walk", str(walk_path), "--level", "1")
    assert code == 1 and not out
    report = json.loads(err)
    assert report["error"] == "ValueError" and "'steps'" in report["message"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["cat", "simples"])
    assert exc.value.code == 2


def test_precision_display_only(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("C2SPIDER_CACHE", str(tmp_path))
    code, out, _ = run(capsys, "--precision", "3", "clasp", "trace", "--a", "1")
    data = json.loads(out)
    assert data["scalar"]["display_at_q1"] == -4.0
