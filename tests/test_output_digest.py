"""Smoke test of tools/output_digest.py on a small subset of its ops."""

import hashlib
import importlib.util
import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest",
                                                  ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_of_a_small_subset():
    tool = _tool()
    doc = tool.digest(str(ROOT / "src"), seeds=(0,), limit=2,
                      sections=("collapse", "export", "export-wide", "help", "evolve"))
    json.dumps(doc)  # the digest is plain JSON
    collapse = doc["collapse"]["0"]
    assert len(collapse) == 2
    for rc, out, err in collapse.values():
        assert rc == 0 and json.loads(out)["closed"]["t_star"] > 0 and err == ""
    for rc, out, _, files in doc["export"]["0"].values():
        assert rc == 0 and out.startswith("<out>/")
        assert sorted(name[-4:] for name in files) == [".csv", "json"]
        assert all(len(digest) == 64 for digest in files.values())
    assert list(doc["export-wide"]) == [name for name, _ in tool.EXPORT]
    for name, (rc, out, err, files) in doc["export-wide"].items():
        assert rc == 0 and out == f"<out>/{name}_000.csv\n"
        # The warning lands in the op's stderr, not in the test runner's recorder.
        assert re.match(r"<src>/isoflow/cli\.py:\d+: UserWarning: ambient dimension \d+ "
                        r"exceeds the default export target of 4;", err), err
        assert sorted(files) == [f"{name}_000.csv", f"{name}_000.json"]
    assert set(doc["help"]) == {"isoflow", "evolve", "collapse", "verify", "export"}
    assert all(rc == 0 and "usage: isoflow" in out for rc, out, _ in doc["help"].values())
    assert [rc for rc, _, _ in doc["evolve"].values()] == [0] * len(tool.EVOLVE)
    # Each op runs in process, so a second digest of the same ops is the same.
    assert tool.digest(str(ROOT / "src"), seeds=(0,), limit=2, sections=("export",)) == {
        "export": doc["export"]}


def test_export_files_hash_as_exports_into_an_empty_directory(tmp_path):
    # The digest writes each op over junk longer than its files; a byte of junk
    # left after the output would change the hash.
    tool = _tool()
    doc = tool.digest(str(ROOT / "src"), seeds=(0,), limit=2, sections=("export",))
    import isoflow.cli as cli
    from perfbench import workloads

    for i, (op, spec, t, res, _) in enumerate(workloads.export_clouds(0)[:2]):
        out_dir = tmp_path / str(i)
        rc, _, _ = tool.run_cli(cli, ["export"] + workloads.argv(spec) + [
            "--times", repr(t), "--resolution", ",".join(map(str, res)),
            "--output-dir", str(out_dir), "--stem", f"op{i:02d}"])
        fresh = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in out_dir.iterdir()}
        assert rc == 0 and len(fresh) == 2
        assert doc["export"]["0"][f"{op}/{i}"][3] == fresh
        assert all(path.stat().st_size < len(tool.JUNK) for path in out_dir.iterdir())


def test_diff_names_each_op_and_line_that_differs(tmp_path, capsys):
    tool = _tool()
    old = {"collapse": {"0": {"op/a": [0, "x\ny\n", ""], "op/b": [0, "z\n", ""]}},
           "export": {"0": {"op/0": [0, "<out>/f.csv\n", "", {"f.csv": "aa"}]}},
           "verify": [1, "PASS a\nFAIL b\n", ""]}
    new = json.loads(json.dumps(old))
    new["collapse"]["0"]["op/a"][1] = "x\nw\n"
    new["export"]["0"]["op/0"][3]["f.csv"] = "bb"
    new["verify"][0] = 0
    paths = []
    for name, doc in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    old_path, new_path = map(str, paths)
    assert tool.main(["--diff", old_path, old_path]) == 0
    assert capsys.readouterr().out == "the digests are identical\n"
    assert tool.main(["--diff", old_path, new_path]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "collapse/0/op/a", "  stdout", "    - y", "    + w",
        "export/0/op/0", "  files", "    - {'f.csv': 'aa'}", "    + {'f.csv': 'bb'}",
        "verify", "  rc", "    - 1", "    + 0",
    ]
    del new["collapse"]["0"]["op/b"]
    assert tool.diff(old, new)[:4] == ["collapse/0/op/a", "  stdout", "    - y", "    + w"]
    assert "collapse/0/op/b: only in the old digest" in tool.diff(old, new)
